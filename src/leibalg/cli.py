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
the subcommand, and between the words of a two-word one: --format text|json,
--field p (instantiate catalog entries over F_p / reduce rational documents
mod p), --max-gl N (search size bound, also settable via LEIBALG_MAX_GL),
--seed N (recorded in reports).  The value given last wins.

Exit codes: 0 success; 2 validation failed; 3 no witness found (a pair
whose invariant keys differ, over any field and at any GL bound, included);
4 witness rejected; 64 usage error (including a pair whose keys agree but
whose search exceeds the GL bound); 65 malformed or inconsistent input data
(a document that is not UTF-8 included), and any other error the library
raises (every LeibalgError); 66 unreadable input file.  emit returns the
code of the report status it writes: ok 0, invalid 2, no_witness 3,
witness_rejected 4.

Each command imports only the layers it runs: `catalog list` loads none,
and only the catalog commands and a catalog:<name> argument load catalog.
Every search, `isoclinic`'s and `extension backward|pullback`'s too, is one
isoclinism.classify of the pair, which builds no extension: `classify` and
an `isoclinic` search that finds a witness load no leibalg.extensions.

All reports are deterministic for fixed inputs: JSON is emitted with sorted
keys and the text format renders the same payload line by line.
"""

from __future__ import annotations

import argparse
import builtins
import json
import sys

from . import __version__
from .errors import DocumentError, LeibalgError, MorphismError, SearchBoundError

def __getattr__(name):
    # `cli.lie_commutator_of` reads the layer's current attribute: the
    # benchmark's tracer test reads it.  The commands import what they run
    # where they run it, so loading cli loads no layer.
    if name != "lie_commutator_of":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .algebra import lie_commutator_of

    return lie_commutator_of


EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_WITNESS = 3
EXIT_WITNESS_REJECTED = 4
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66

# the exit code of each report status: emit returns it
_STATUS_EXIT = {"ok": EXIT_OK, "invalid": EXIT_INVALID, "no_witness": EXIT_NO_WITNESS,
                "witness_rejected": EXIT_WITNESS_REJECTED}

CATALOG_PREFIX = "catalog:"


class UsageError(argparse.ArgumentTypeError):
    """A bad command line.  As an ArgumentTypeError, one raised by a type=
    function reads `argument --flag: message`."""


def int(text):
    """The integer an integer flag's text spells, as the built-in int reads
    it.  A refusal reads as argparse words it (`invalid int value: 'abc'`),
    the text quoted as fields.quoted quotes it, and past the int-string
    limit the text is not echoed."""
    try:
        return builtins.int(text)
    except ValueError:
        from .fields import past_int_limit, quoted

        if past_int_limit(text):
            raise UsageError("the value has too many digits") from None
        raise UsageError(f"invalid int value: {quoted(text)}") from None


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)  # what error may echo
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse echoes an argument whole, or its text after "=" or after
        # its first two characters (`ambiguous option: --f=...`, `ignored
        # explicit argument '...'`): cut each as fields.quoted and cut do
        from .fields import cut, quoted

        for arg in self._args:
            for text in (arg, arg.partition("=")[2], arg[2:]):
                message = message.replace(repr(text), quoted(text)).replace(text, cut(text))
        raise UsageError(message)

    def _check_value(self, action, value):
        # quote the choices on every Python: argparse stopped quoting them in
        # 3.13.x; after a value cut short they would not fit on a short line
        if action.choices is not None and value not in action.choices:
            from .fields import quoted

            text = quoted(value)
            if text == repr(value):
                text += f" (choose from {', '.join(map(repr, action.choices))})"
            raise argparse.ArgumentError(action, f"invalid choice: {text}")


def build_parser() -> _Parser:
    # The global flags, declared once.  Every leaf, and the first word of each
    # two-word command, shares these action objects with the top level, so
    # none of them has a default: a flag given later overrides one given
    # earlier, and main supplies the defaults in the namespace it parses into.
    flags = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--format", choices=("text", "json"),
                       help="report rendering (default text)")
    flags.add_argument("--seed", type=int, help="seed recorded in reports")
    flags.add_argument("--max-gl", type=int, dest="max_gl",
                       help="largest |GL(n, F_p)| the search may enumerate")
    flags.add_argument("--field", type=int, metavar="P",
                       help="odd prime: build catalog entries over F_p and "
                            "reduce rational documents mod p")
    parser = _Parser(prog="leibalg", parents=[flags],
                     description="Exact invariants, Lie-central extensions and "
                                 "Lie-isoclinism for finite-dimensional Leibniz algebras.")
    sub = parser.add_subparsers(dest="command", metavar="<command>", required=True)

    def leaf(group, name, help, handler, *positionals):
        p = group.add_parser(name, help=help, parents=[flags])
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler)
        return p

    def branch(name, help, dest):
        return sub.add_parser(name, help=help, parents=[flags]).add_subparsers(
            dest=dest, metavar=f"<{dest}>", required=True)

    leaf(sub, "validate", "check the Leibniz identity", cmd_validate, "algebra")
    leaf(sub, "invariants", "relative invariants and stem data", cmd_invariants, "algebra")
    mode = leaf(sub, "isoclinic", "decide Lie-isoclinism of two algebras", cmd_isoclinic,
                "first", "second").add_mutually_exclusive_group()
    mode.add_argument("--search", action="store_true",
                      help="search for a witness (default)")
    mode.add_argument("--witness", metavar="FILE",
                      help="check the witness stored in FILE instead of searching")
    leaf(sub, "classify", "partition a directory of algebra documents", cmd_classify,
         "directory")

    ext = branch("extension", "build and validate Lie-central extensions", "construction")
    leaf(ext, "canonical", "0 -> Z_Lie(g) -> g -> g/Z_Lie(g) -> 0", cmd_extension_canonical,
         "algebra")
    leaf(ext, "backward", "backward extension along a searched witness",
         cmd_extension_searched, "first", "second")
    leaf(ext, "pullback", "diagonal pullback along a searched witness",
         cmd_extension_searched, "first", "second")
    leaf(ext, "product", "product with an abelian algebra", cmd_extension_product,
         "algebra").add_argument("--abelian-dim", type=int, default=1, dest="abelian_dim")

    cat = branch("catalog", "built-in example algebras", "action")
    leaf(cat, "list", "list entries", cmd_catalog_list)
    leaf(cat, "show", "print an entry as an algebra document", cmd_catalog_show, "name")
    return parser


# -- input plumbing ---------------------------------------------------------


def _target_field(args):
    if args.field is None:
        return None
    from .fields import Field

    return Field.prime(args.field)


def load_algebra(ref: str, field: Field | None, check=True) -> LeibnizAlgebra:
    if ref.startswith(CATALOG_PREFIX):
        from .catalog import catalog_entry

        return catalog_entry(ref[len(CATALOG_PREFIX):], field)
    return parse_algebra(_read_text(ref), field, check)


def _load(args, *labels, check=True):
    """The named arguments' algebras and their inputs block: a reference given
    twice is loaded and hashed once, and a pair over two fields is refused."""
    from .documents import algebra_hash

    field = _target_field(args)
    refs = [getattr(args, label) for label in labels]
    loaded = {ref: load_algebra(ref, field, check) for ref in dict.fromkeys(refs)}
    if len({alg.field for alg in loaded.values()}) > 1:
        raise DocumentError("extensions live over different fields")
    hashes = {ref: algebra_hash(alg) for ref, alg in loaded.items()}
    return [loaded[ref] for ref in refs], {label: hashes[ref] for label, ref in zip(labels, refs)}


def _search_pair(args):
    """classify on the first and second algebras: the classification, the
    first witness from the first to the second or None, and their inputs."""
    from .isoclinism import classify

    algebras, inputs = _load(args, "first", "second")
    result = classify(algebras, max_gl=args.max_gl)
    return result, result.classes[0].witnesses.get(1), inputs


def parse_algebra(text: str, field: Field | None, check=True) -> LeibnizAlgebra:
    """The algebra of a document's text, reduced to field when one is given."""
    from .documents import convert_field, parse_algebra_json

    alg = parse_algebra_json(text, check=check)
    return alg if field is None else convert_field(alg, field)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            from .fields import cut

            raise DocumentError(f"{cut(path)} is not UTF-8 text: {exc}") from exc


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
    from .algebra import is_abelian, lie_center, lie_commutator_of
    from .homology import is_stem_cover_candidate

    alg = e.g
    # the annihilator ideal is the Lie-commutator (algebra.annihilator_ideal),
    # and the algebra is Lie exactly when it is zero
    com = lie_commutator_of(alg).dim
    return {
        "field": str(alg.field),
        "dim": alg.dim,
        "lie_center_dim": lie_center(alg).dim,
        "lie_commutator_dim": com,
        "annihilator_dim": com,
        "liezation_dim": alg.dim - com,
        "is_lie": com == 0,
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
    from .documents import matrix_to_json

    return {"eta": matrix_to_json(w.eta.matrix), "xi": matrix_to_json(w.xi.matrix)}


def emit(args, command, inputs, status, payload) -> int:
    """Write the report of a command with the given status, and return the
    status's exit code."""
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
    return _STATUS_EXIT[status]


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

    (alg,), inputs = _load(args, "algebra", check=False)
    report = validate(alg)
    violations = [{"triple": list(v.triple),
                   "residual": [alg.field.scalar_to_json(c) for c in v.residual]}
                  for v in report.violations]
    payload = {"field": str(alg.field), "dim": alg.dim, "violations": violations}
    status = "ok" if report.ok else "invalid"
    return emit(args, "validate", inputs, status, payload)


def cmd_invariants(args):
    from .extensions import canonical_extension

    (alg,), inputs = _load(args, "algebra")
    return emit(args, "invariants", inputs, "ok", invariants_payload(canonical_extension(alg)))


def cmd_isoclinic(args):
    if args.witness:
        from .algebra import AlgebraMorphism, lie_commutator_of
        from .documents import matrix_from_json, read_json
        from .extensions import canonical_extension
        from .isoclinism import IsoclinismWitness, check_witness
        from .linalg import LinearMap

        algebras, inputs = _load(args, "first", "second")
        built = {alg: canonical_extension(alg) for alg in algebras}  # once per distinct algebra
        e1, e2 = (built[alg] for alg in algebras)
        doc = read_json(_read_text(args.witness), args.witness)
        if not isinstance(doc, dict) or "eta" not in doc or "xi" not in doc:
            raise DocumentError("witness document needs 'eta' and 'xi' matrices")
        com1 = lie_commutator_of(e1.g)
        com2 = lie_commutator_of(e2.g)
        f = e1.g.field
        eta_mat = matrix_from_json(f, doc["eta"], e2.q.dim, e1.q.dim)
        xi_mat = matrix_from_json(f, doc["xi"], com2.dim, com1.dim)
        try:
            eta = AlgebraMorphism(e1.q, e2.q, eta_mat)
        except MorphismError as exc:
            return emit(args, "isoclinic", inputs, "witness_rejected",
                        {"failures": [f"eta is not an algebra morphism: {exc}"]})
        witness = IsoclinismWitness(eta, LinearMap(com1, com2, xi_mat))
        report = check_witness(e1, e2, witness)
        if report.ok:
            return emit(args, "isoclinic", inputs, "ok",
                        {"witness": witness_payload(witness),
                         "surjectivity_automatic": report.surjectivity_automatic})
        return emit(args, "isoclinic", inputs, "witness_rejected",
                    {"failures": list(report.failures)})
    result, witness, inputs = _search_pair(args)
    if witness is None:
        e1, e2 = result.extensions
        return emit(args, "isoclinic", inputs, "no_witness",
                    {"first": invariants_payload(e1), "second": invariants_payload(e2)})
    return emit(args, "isoclinic", inputs, "ok", {"witness": witness_payload(witness)})


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
    payloads = {}  # id of a witness -> its payload: copies of an input share one witness

    def payload(w):
        if id(w) not in payloads:
            payloads[id(w)] = witness_payload(w)
        return payloads[id(w)]

    classes = []
    for cls in classification.classes:
        classes.append({
            "representative": names[cls.representative],
            "members": [names[i] for i in cls.members],
            "witnesses": {names[i]: payload(w) for i, w in sorted(cls.witnesses.items())},
        })
    hashes = {}  # distinct algebra -> its hash
    inputs = {}
    for name, alg in zip(names, algebras):
        if alg not in hashes:
            hashes[alg] = algebra_hash(alg)
        inputs[name] = hashes[alg]
    return emit(args, "classify", inputs, "ok", {"count": len(classes), "classes": classes})


def cmd_extension_canonical(args):
    from .extensions import canonical_extension

    (alg,), inputs = _load(args, "algebra")
    payload = extension_payload(canonical_extension(alg), "canonical")
    return emit(args, "extension", inputs, "ok" if payload["valid"] else "invalid", payload)


def cmd_extension_searched(args):
    """extension backward|pullback: the construction along a searched witness."""
    from .constructions import backward_extension, diagonal_pullback, is_isoclinic_homomorphism

    result, witness, inputs = _search_pair(args)
    if witness is None:
        return emit(args, "extension", inputs, "no_witness", {"construction": args.construction})
    e1, e2 = result.extensions
    if args.construction == "backward":
        built = backward_extension(e2, witness.eta)
        triples = {"iso_triple_isoclinic": bool(is_isoclinic_homomorphism(built.iso))}
    else:
        built = diagonal_pullback(e1, e2, witness.eta)
        triples = {"triples_isoclinic": [bool(is_isoclinic_homomorphism(t))
                                         for t in (built.to_first, built.to_second)]}
    payload = extension_payload(built.extension, args.construction)
    payload["witness"] = witness_payload(witness)
    payload.update(triples)
    return emit(args, "extension", inputs, "ok" if payload["valid"] else "invalid", payload)


def cmd_extension_product(args):
    from .algebra import LeibnizAlgebra
    from .documents import check_dim
    from .constructions import is_isoclinic_homomorphism, product_with_abelian
    from .extensions import canonical_extension

    if args.abelian_dim < 0:
        raise UsageError("--abelian-dim must be non-negative")
    (alg,), inputs = _load(args, "algebra")
    check_dim(alg.dim + args.abelian_dim)
    e = canonical_extension(alg)
    abelian = LeibnizAlgebra.abelian(alg.field, args.abelian_dim)
    pr = product_with_abelian(e, abelian)
    payload = extension_payload(pr.extension, "product")
    payload["abelian_dim"] = args.abelian_dim
    payload["triples_isoclinic"] = [bool(is_isoclinic_homomorphism(t))
                                    for t in (pr.onto_original, pr.from_original)]
    return emit(args, "extension", inputs, "ok" if payload["valid"] else "invalid", payload)


def cmd_catalog_list(args):
    from .catalog import catalog_names, describe

    entries = [{"name": name, "description": describe(name)}
               for name in catalog_names()]
    return emit(args, "catalog", {}, "ok", {"entries": entries})


def cmd_catalog_show(args):
    from .catalog import catalog_entry
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
    defaults = argparse.Namespace(format="text", seed=None, max_gl=None, field=None)
    try:
        args, extras = build_parser().parse_known_args(argv, defaults)
        if extras:
            from .fields import cut

            raise UsageError(f"unrecognized arguments: {cut(' '.join(extras))}")
        return args.handler(args)
    except (UsageError, SearchBoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LeibalgError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"data error: {message}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        message = str(exc)
        if exc.filename is not None:  # str(exc) would quote it whole
            from .fields import quoted

            message = f"[Errno {exc.errno}] {exc.strerror}: {quoted(exc.filename)}"
        print(f"io error: {message}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
