"""Output checks, run outside the timed region.

Each check returns a list of mismatch descriptions; an operation counts as
failed when its exit code differs from the expected one or the list is not
empty.  Witnesses are re-verified with the library's own `check_witness`
on extensions built from the generated documents.
"""

from __future__ import annotations

import functools
import json

from leibalg.algebra import (
    AlgebraMorphism,
    MorphismError,
    annihilator_ideal,
    lie_center,
    lie_commutator_of,
)
from leibalg.documents import DocumentError, algebra_hash, matrix_from_json, parse_algebra_json
from leibalg.extensions import canonical_extension
from leibalg.fields import Field
from leibalg.isoclinism import IsoclinismWitness, check_witness
from leibalg.linalg import LinalgError, LinearMap

import inputs


def _report(stdout, command, status):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(report, dict):
        return None, ["report is not a JSON object"]
    problems = []
    if report.get("command") != command:
        problems.append(f"command {report.get('command')!r}, expected {command!r}")
    if report.get("status") != status:
        problems.append(f"status {report.get('status')!r}, expected {status!r}")
    if not isinstance(report.get("payload"), dict):
        problems.append("payload is not an object")
        return None, problems
    return report, problems


def witness_problems(e1, e2, doc):
    """Rebuild a JSON witness between two extensions and verify it."""
    if not isinstance(doc, dict) or set(doc) != {"eta", "xi"}:
        return ["witness needs exactly 'eta' and 'xi'"]
    f = e1.g.field
    com1, com2 = lie_commutator_of(e1.g), lie_commutator_of(e2.g)
    try:
        eta = AlgebraMorphism(e1.q, e2.q, matrix_from_json(f, doc["eta"], e2.q.dim, e1.q.dim))
        xi = LinearMap(com1, com2, matrix_from_json(f, doc["xi"], com2.dim, com1.dim))
    except (DocumentError, MorphismError, LinalgError) as exc:
        return [f"witness does not parse: {exc}"]
    report = check_witness(e1, e2, IsoclinismWitness(eta, xi))
    return [f"witness rejected: {msg}" for msg in report.failures]


# Batches of the acceptance sampler repeat the same few dozen documents, so
# the checks are memoized on document text and witness.


@functools.lru_cache(maxsize=1024)
def _parsed(text):
    """(canonical extension, content hash) of one algebra document."""
    alg = parse_algebra_json(text)
    return canonical_extension(alg), algebra_hash(alg)


@functools.lru_cache(maxsize=8192)
def _witness_verdict(first_text, second_text, witness_json):
    return tuple(witness_problems(_parsed(first_text)[0], _parsed(second_text)[0],
                                  json.loads(witness_json)))


def check_classify(op, stdout):
    report, problems = _report(stdout, "classify", op.status)
    if report is None:
        return problems
    texts = {path.split("/", 1)[1]: text for path, text in op.files.items()}
    names = sorted(texts)
    if report.get("inputs") != {n: _parsed(texts[n])[1] for n in names}:
        problems.append("input hashes do not match the documents")
    classes = report["payload"].get("classes")
    if not isinstance(classes, list) or report["payload"].get("count") != len(classes):
        return problems + ["classes missing or count wrong"]
    seen = []
    for k, cls in enumerate(classes):
        members = cls.get("members") if isinstance(cls, dict) else None
        if not isinstance(members, list) or not members:
            problems.append(f"class {k} has no members")
            continue
        seen.extend(members)
        rep = cls.get("representative")
        if rep != members[0]:
            problems.append(f"class {k}: representative {rep!r} is not its first member")
        witnesses = cls.get("witnesses")
        if not isinstance(witnesses, dict) or sorted(witnesses) != sorted(members):
            problems.append(f"class {k}: witnesses do not cover exactly its members")
            continue
        if any(m not in texts for m in members) or rep not in texts:
            continue
        for member in members:
            witness = json.dumps(witnesses[member], sort_keys=True)
            for msg in _witness_verdict(texts[rep], texts[member], witness):
                problems.append(f"class {k}, {rep} -> {member}: {msg}")
    if sorted(seen) != names:
        problems.append("classes are not a partition of the inputs")
    return problems


def check_isoclinic(op, stdout):
    report, problems = _report(stdout, "isoclinic", op.status)
    if report is None or op.status != "ok" or problems:
        return problems
    witness = report["payload"].get("witness")
    e1, e2 = (_parsed(op.files[name])[0] for name in ("a.json", "b.json"))
    problems += witness_problems(e1, e2, witness)
    if not problems and witness["eta"] != op.expect["eta"]:
        problems.append("eta is not the lexicographically first witness")
    return problems


def check_invariants(op, stdout):
    """The three ideals add up over a direct product: its cross brackets vanish."""
    report, problems = _report(stdout, "invariants", op.status)
    if report is None:
        return problems
    factors = [inputs.named(name, Field.rationals()) for name in op.expect["factors"]]
    dim = sum(alg.dim for alg in factors)
    center = sum(lie_center(alg).dim for alg in factors)
    commutator = sum(lie_commutator_of(alg).dim for alg in factors)
    ann = sum(annihilator_ideal(alg).dim for alg in factors)
    payload = report["payload"]
    expected = {
        "field": "Q",
        "dim": dim,
        "lie_center_dim": center,
        "lie_commutator_dim": commutator,
        "annihilator_dim": ann,
        "liezation_dim": dim - ann,
        "is_lie": ann == 0,
        "is_abelian": False,
    }
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{key} = {payload.get(key)!r}, expected {value!r}")
    canon = payload.get("canonical_extension")
    if not isinstance(canon, dict) or (canon.get("n_dim"), canon.get("q_dim")) != (center, dim - center):
        problems.append("canonical extension dimensions do not match the Lie-center")
    return problems


CHECKS = {
    "classify-f3": check_classify,
    "isoclinic-f5": check_isoclinic,
    "invariants-q24": check_invariants,
}


def check(workload, op, exit_code, stdout):
    problems = []
    if exit_code != op.exit_code:
        problems.append(f"exit code {exit_code}, expected {op.exit_code}")
    try:
        return problems + CHECKS[workload](op, stdout)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return problems + [f"malformed report: {exc!r}"]
