"""Batch command-line surface over the library.

Commands
    validate <algebra>                 check the Leibniz identity
    invariants <algebra>               relative invariants + stem data
    isoclinic <a> <b> [--search | --witness FILE]
    classify <dir>                     partition a directory of algebras
    extension canonical|backward|pullback|product ...
    catalog list | show <name>

An <algebra> argument is either a path to an algebra document (JSON) or a
built-in reference catalog:<name>.  Global flags may appear before or after
the subcommand: --format text|json, --field p (instantiate catalog entries
over F_p / reduce rational documents mod p), --max-gl N (search size bound,
also settable via LEIBALG_MAX_GL), --seed N (recorded in reports).

Exit codes: 0 success; 2 validation failed; 3 no witness found; 4 witness
rejected; 64 usage error (including a search larger than the GL bound);
65 malformed or inconsistent input data (a document that is not UTF-8
included), and any other error the library raises (every class in
leibalg.errors); 66 unreadable input file.

Each command imports only the layers it runs: `catalog list` loads none.

All reports are deterministic for fixed inputs: JSON is emitted with sorted
keys and the text format renders the same payload line by line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import catalog_entry, catalog_names, describe
from .errors import (
    AlgebraError,
    CatalogError,
    DocumentError,
    ExtensionError,
    FieldError,
    IsoclinismError,
    LinalgError,
    MorphismError,
    SearchBoundError,
)

# Layer names that `cli.<name>` resolves to the layer's current attribute.
# The commands import them where they run, so loading cli loads no layer.
_LAYER_NAMES = {
    "algebra": ("AlgebraMorphism", "LeibnizAlgebra", "annihilator_ideal",
                "has_trivial_lie_commutator", "is_abelian", "lie_center",
                "lie_commutator_of", "validate"),
    "documents": ("algebra_hash", "canonical_json", "check_dim", "convert_field",
                  "matrix_from_json", "parse_algebra_json", "serialize_algebra",
                  "serialize_witness"),
    "extensions": ("backward_extension", "canonical_extension", "diagonal_pullback",
                   "product_with_abelian", "validate_extension"),
    "fields": ("Field",),
    "homology": ("check_sequence_nine", "check_sequence_tail", "is_stem_cover_candidate"),
    "isoclinism": ("IsoclinismWitness", "check_witness", "is_isoclinic_homomorphism",
                   "search_isoclinism"),
    "linalg": ("LinearMap",),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__package__}.{layer}"), name)


EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_WITNESS = 3
EXIT_WITNESS_REJECTED = 4
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66

CATALOG_PREFIX = "catalog:"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _global_flags(parser, suppress):
    sup = argparse.SUPPRESS

    def dflt(value):
        return sup if suppress else value

    parser.add_argument("--format", choices=("text", "json"), default=dflt("text"),
                        help="report rendering (default text)")
    parser.add_argument("--seed", type=int, default=dflt(None),
                        help="seed recorded in reports")
    parser.add_argument("--max-gl", type=int, dest="max_gl", default=dflt(None),
                        help="largest |GL(n, F_p)| the search may enumerate")
    parser.add_argument("--field", type=int, default=dflt(None), metavar="P",
                        help="odd prime: build catalog entries over F_p and "
                             "reduce rational documents mod p")


def build_parser() -> _Parser:
    parser = _Parser(prog="leibalg",
                     description="Exact invariants, Lie-central extensions and "
                                 "Lie-isoclinism for finite-dimensional Leibniz algebras.")
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", metavar="<command>")
    sub.required = True

    p = sub.add_parser("validate", help="check the Leibniz identity")
    p.add_argument("algebra")
    _global_flags(p, suppress=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("invariants", help="relative invariants and stem data")
    p.add_argument("algebra")
    _global_flags(p, suppress=True)
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("isoclinic", help="decide Lie-isoclinism of two algebras")
    p.add_argument("first")
    p.add_argument("second")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--search", action="store_true",
                      help="search for a witness (default)")
    mode.add_argument("--witness", metavar="FILE",
                      help="check the witness stored in FILE instead of searching")
    _global_flags(p, suppress=True)
    p.set_defaults(handler=cmd_isoclinic)

    p = sub.add_parser("classify", help="partition a directory of algebra documents")
    p.add_argument("directory")
    _global_flags(p, suppress=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("extension", help="build and validate Lie-central extensions")
    ext = p.add_subparsers(dest="construction", metavar="<construction>")
    ext.required = True
    q = ext.add_parser("canonical", help="0 -> Z_Lie(g) -> g -> g/Z_Lie(g) -> 0")
    q.add_argument("algebra")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_extension_canonical)
    q = ext.add_parser("backward", help="backward extension along a searched witness")
    q.add_argument("first")
    q.add_argument("second")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_extension_backward)
    q = ext.add_parser("pullback", help="diagonal pullback along a searched witness")
    q.add_argument("first")
    q.add_argument("second")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_extension_pullback)
    q = ext.add_parser("product", help="product with an abelian algebra")
    q.add_argument("algebra")
    q.add_argument("--abelian-dim", type=int, default=1, dest="abelian_dim")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_extension_product)

    p = sub.add_parser("catalog", help="built-in example algebras")
    cat = p.add_subparsers(dest="action", metavar="<action>")
    cat.required = True
    q = cat.add_parser("list", help="list entries")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_catalog_list)
    q = cat.add_parser("show", help="print an entry as an algebra document")
    q.add_argument("name")
    _global_flags(q, suppress=True)
    q.set_defaults(handler=cmd_catalog_show)

    return parser


# -- input plumbing ---------------------------------------------------------


def _target_field(args):
    if args.field is None:
        return None
    from .fields import Field

    return Field.prime(args.field)


def load_algebra(ref: str, field: Field | None, check=True) -> LeibnizAlgebra:
    if ref.startswith(CATALOG_PREFIX):
        return catalog_entry(ref[len(CATALOG_PREFIX):], field)
    return parse_algebra(_read_text(ref), field, check)


def parse_algebra(text: str, field: Field | None, check=True) -> LeibnizAlgebra:
    """The algebra of a document's text, reduced to field when one is given."""
    from .documents import convert_field, parse_algebra_json

    alg = parse_algebra_json(text, check=check)
    if field is not None and alg.field != field:
        alg = convert_field(alg, field)
    return alg


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc


# -- payload builders -------------------------------------------------------


def sequence_payload(rep):
    return {
        "ok": rep.ok,
        "spaces": [{"label": label, "dim": dim} for label, dim in rep.spaces],
        "junctions": [
            {"label": j.label, "space_dim": j.space_dim, "image_dim": j.image_dim,
             "kernel_dim": j.kernel_dim, "exact": j.exact}
            for j in rep.junctions
        ],
    }


def stem_payload(rep):
    return {"verdict": rep.verdict, "cover": rep.cover, "n_dim": rep.n_dim,
            "theta_dim": rep.theta_dim, "theta_surjective": rep.theta_surjective}


def invariants_payload(e):
    """Invariants of the algebra e.g, given its canonical extension e."""
    from .algebra import (
        annihilator_ideal,
        has_trivial_lie_commutator,
        is_abelian,
        lie_center,
        lie_commutator_of,
    )
    from .homology import is_stem_cover_candidate

    alg = e.g
    ann = annihilator_ideal(alg)
    return {
        "field": str(alg.field),
        "dim": alg.dim,
        "lie_center_dim": lie_center(alg).dim,
        "lie_commutator_dim": lie_commutator_of(alg).dim,
        "annihilator_dim": ann.dim,
        "liezation_dim": alg.dim - ann.dim,
        "is_lie": has_trivial_lie_commutator(alg),
        "is_abelian": is_abelian(alg),
        "canonical_extension": {
            "n_dim": e.n.dim,
            "q_dim": e.q.dim,
            "stem": stem_payload(is_stem_cover_candidate(e)),
        },
    }


def extension_payload(e, construction):
    from .extensions import validate_extension
    from .homology import check_sequence_nine, check_sequence_tail, is_stem_cover_candidate

    report = validate_extension(e)
    payload = {
        "construction": construction,
        "valid": report.ok,
        "n_dim": e.n.dim,
        "g_dim": e.g.dim,
        "q_dim": e.q.dim,
    }
    if not report.ok:
        payload["failures"] = list(report.failures)
        return payload
    payload["sequence_tail"] = sequence_payload(check_sequence_tail(e))
    payload["sequence_nine"] = sequence_payload(check_sequence_nine(e))
    payload["stem"] = stem_payload(is_stem_cover_candidate(e))
    return payload


def witness_payload(w: IsoclinismWitness):
    from .documents import serialize_witness

    doc = serialize_witness(w)
    return {"eta": doc["eta"], "xi": doc["xi"]}


def emit(args, command, inputs, status, payload) -> None:
    report = {
        "schema_version": "1",
        "version": __version__,
        "command": command,
        "status": status,
        "seed": args.seed,
        "inputs": inputs,
        "payload": payload,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        lines = [f"command: {command}", f"status: {status}"]
        for label in sorted(inputs):
            lines.append(f"input {label}: {inputs[label]}")
        _flatten("", payload, lines)
        print("\n".join(lines))


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for idx, v in enumerate(value):
            _flatten(f"{prefix}[{idx}]", v, out)
    else:
        rendered = json.dumps(value) if isinstance(value, (list, bool)) or value is None else value
        out.append(f"{prefix}: {rendered}")


# -- subcommands ------------------------------------------------------------


def cmd_validate(args):
    from .algebra import validate
    from .documents import algebra_hash

    alg = load_algebra(args.algebra, _target_field(args), check=False)
    report = validate(alg)
    violations = [{"triple": list(v.triple),
                   "residual": [alg.field.scalar_to_json(c) for c in v.residual]}
                  for v in report.violations]
    payload = {"field": str(alg.field), "dim": alg.dim, "violations": violations}
    status = "ok" if report.ok else "invalid"
    emit(args, "validate", {"algebra": algebra_hash(alg)}, status, payload)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_invariants(args):
    from .documents import algebra_hash
    from .extensions import canonical_extension

    alg = load_algebra(args.algebra, _target_field(args))
    emit(args, "invariants", {"algebra": algebra_hash(alg)}, "ok",
         invariants_payload(canonical_extension(alg)))
    return EXIT_OK


def cmd_isoclinic(args):
    from .algebra import AlgebraMorphism, lie_commutator_of
    from .documents import algebra_hash, matrix_from_json
    from .extensions import canonical_extension
    from .isoclinism import IsoclinismWitness, check_witness, search_isoclinism
    from .linalg import LinearMap

    field = _target_field(args)
    a = load_algebra(args.first, field)
    b = load_algebra(args.second, field)
    inputs = {"first": algebra_hash(a), "second": algebra_hash(b)}
    e1 = canonical_extension(a)
    e2 = canonical_extension(b)
    if args.witness:
        doc = _read_json(args.witness)
        if not isinstance(doc, dict) or "eta" not in doc or "xi" not in doc:
            raise DocumentError("witness document needs 'eta' and 'xi' matrices")
        com1 = lie_commutator_of(e1.g)
        com2 = lie_commutator_of(e2.g)
        f = a.field
        eta_mat = matrix_from_json(f, doc["eta"], e2.q.dim, e1.q.dim)
        xi_mat = matrix_from_json(f, doc["xi"], com2.dim, com1.dim)
        try:
            eta = AlgebraMorphism(e1.q, e2.q, eta_mat)
        except MorphismError as exc:
            emit(args, "isoclinic", inputs, "witness_rejected",
                 {"failures": [f"eta is not an algebra morphism: {exc}"]})
            return EXIT_WITNESS_REJECTED
        witness = IsoclinismWitness(eta, LinearMap(com1, com2, xi_mat))
        report = check_witness(e1, e2, witness)
        if report.ok:
            emit(args, "isoclinic", inputs, "ok",
                 {"witness": witness_payload(witness),
                  "surjectivity_automatic": report.surjectivity_automatic})
            return EXIT_OK
        emit(args, "isoclinic", inputs, "witness_rejected",
             {"failures": list(report.failures)})
        return EXIT_WITNESS_REJECTED
    witness = search_isoclinism(e1, e2, max_gl=args.max_gl)
    if witness is None:
        emit(args, "isoclinic", inputs, "no_witness",
             {"first": invariants_payload(e1), "second": invariants_payload(e2)})
        return EXIT_NO_WITNESS
    emit(args, "isoclinic", inputs, "ok", {"witness": witness_payload(witness)})
    return EXIT_OK


def cmd_classify(args):
    import os

    from .documents import algebra_hash
    from .isoclinism import classify as classify_algebras

    field = _target_field(args)
    names = sorted(n for n in os.listdir(args.directory) if n.endswith(".json"))
    parsed = {}  # document text -> its algebra: copies are parsed once
    algebras = []
    for name in names:
        text = _read_text(os.path.join(args.directory, name))
        if text not in parsed:
            parsed[text] = parse_algebra(text, field)
        algebras.append(parsed[text])
    fields = {alg.field for alg in algebras}
    if len(fields) > 1 or (algebras and not algebras[0].field.is_finite):
        raise DocumentError(
            "classify needs all inputs over one finite field; pass --field p "
            "to reduce rational documents")
    classification = classify_algebras(algebras, max_gl=args.max_gl)
    classes = []
    for cls in classification.classes:
        classes.append({
            "representative": names[cls.representative],
            "members": [names[i] for i in cls.members],
            "witnesses": {names[i]: witness_payload(w)
                          for i, w in sorted(cls.witnesses.items())},
        })
    hashes = {}  # distinct algebra -> its hash
    inputs = {}
    for name, alg in zip(names, algebras):
        if alg not in hashes:
            hashes[alg] = algebra_hash(alg)
        inputs[name] = hashes[alg]
    emit(args, "classify", inputs, "ok",
         {"count": len(classes), "classes": classes})
    return EXIT_OK


def cmd_extension_canonical(args):
    from .documents import algebra_hash
    from .extensions import canonical_extension

    alg = load_algebra(args.algebra, _target_field(args))
    e = canonical_extension(alg)
    payload = extension_payload(e, "canonical")
    status = "ok" if payload["valid"] else "invalid"
    emit(args, "extension", {"algebra": algebra_hash(alg)}, status, payload)
    return EXIT_OK if payload["valid"] else EXIT_INVALID


def _searched_pair(args):
    from .documents import algebra_hash
    from .extensions import canonical_extension
    from .isoclinism import search_isoclinism

    field = _target_field(args)
    a = load_algebra(args.first, field)
    b = load_algebra(args.second, field)
    e1 = canonical_extension(a)
    e2 = canonical_extension(b)
    inputs = {"first": algebra_hash(a), "second": algebra_hash(b)}
    witness = search_isoclinism(e1, e2, max_gl=args.max_gl)
    return e1, e2, witness, inputs


def cmd_extension_backward(args):
    from .extensions import backward_extension
    from .isoclinism import is_isoclinic_homomorphism

    e1, e2, witness, inputs = _searched_pair(args)
    if witness is None:
        emit(args, "extension", inputs, "no_witness", {"construction": "backward"})
        return EXIT_NO_WITNESS
    bw = backward_extension(e2, witness.eta)
    payload = extension_payload(bw.extension, "backward")
    payload["witness"] = witness_payload(witness)
    payload["iso_triple_isoclinic"] = bool(is_isoclinic_homomorphism(bw.iso))
    status = "ok" if payload["valid"] else "invalid"
    emit(args, "extension", inputs, status, payload)
    return EXIT_OK if payload["valid"] else EXIT_INVALID


def cmd_extension_pullback(args):
    from .extensions import diagonal_pullback
    from .isoclinism import is_isoclinic_homomorphism

    e1, e2, witness, inputs = _searched_pair(args)
    if witness is None:
        emit(args, "extension", inputs, "no_witness", {"construction": "pullback"})
        return EXIT_NO_WITNESS
    pb = diagonal_pullback(e1, e2, witness.eta)
    payload = extension_payload(pb.extension, "pullback")
    payload["witness"] = witness_payload(witness)
    payload["triples_isoclinic"] = [
        bool(is_isoclinic_homomorphism(pb.to_first)),
        bool(is_isoclinic_homomorphism(pb.to_second)),
    ]
    status = "ok" if payload["valid"] else "invalid"
    emit(args, "extension", inputs, status, payload)
    return EXIT_OK if payload["valid"] else EXIT_INVALID


def cmd_extension_product(args):
    from .algebra import LeibnizAlgebra
    from .documents import algebra_hash, check_dim
    from .extensions import canonical_extension, product_with_abelian
    from .isoclinism import is_isoclinic_homomorphism

    alg = load_algebra(args.algebra, _target_field(args))
    if args.abelian_dim < 0:
        raise UsageError("--abelian-dim must be non-negative")
    check_dim(alg.dim + args.abelian_dim)
    e = canonical_extension(alg)
    abelian = LeibnizAlgebra.abelian(alg.field, args.abelian_dim)
    pr = product_with_abelian(e, abelian)
    payload = extension_payload(pr.extension, "product")
    payload["abelian_dim"] = args.abelian_dim
    payload["triples_isoclinic"] = [
        bool(is_isoclinic_homomorphism(pr.onto_original)),
        bool(is_isoclinic_homomorphism(pr.from_original)),
    ]
    status = "ok" if payload["valid"] else "invalid"
    emit(args, "extension", {"algebra": algebra_hash(alg)}, status, payload)
    return EXIT_OK if payload["valid"] else EXIT_INVALID


def cmd_catalog_list(args):
    entries = [{"name": name, "description": describe(name)}
               for name in catalog_names()]
    emit(args, "catalog", {}, "ok", {"entries": entries})
    return EXIT_OK


def cmd_catalog_show(args):
    from .documents import canonical_json, serialize_algebra

    alg = catalog_entry(args.name, _target_field(args))
    doc = serialize_algebra(alg)
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        lines = []
        _flatten("", doc, lines)
        print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DocumentError, CatalogError, FieldError, AlgebraError, MorphismError,
            LinalgError, ExtensionError, IsoclinismError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"data error: {message}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
