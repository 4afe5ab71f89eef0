"""JSON interchange for algebras and witnesses.

An algebra document is:

    {
      "schema_version": "1",
      "field": "Q" | {"p": <odd prime>},
      "dim": <int from 0 to MAX_DIM>,
      "basis": [<distinct name>, ...],
      "brackets": [{"left": i, "right": j, "value": [<scalar>, ...]}, ...]
    }

Scalars are integers for a prime field and canonical fraction strings for Q;
JSON booleans are rejected wherever an integer is expected.
Bracket entries with an all-zero value are omitted, entries are sorted by
(left, right), and canonical_json renders with sorted keys and no spaces, so
serialization is a bijection on canonical documents: parse then serialize is
the identity, byte for byte.
"""

from __future__ import annotations

import json

# hashlib loads OpenSSL, about 3.5 MB of peak RSS per command on CPython 3.11;
# CPython's built-in SHA-2 module gives the same digests.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .algebra import LeibnizAlgebra, violations
from .errors import DocumentError, FieldError
from .fields import Field, cut, magnitude, quoted
from .linalg import Matrix

SCHEMA_VERSION = "1"

# Largest algebra dimension accepted from outside input.  Validation checks
# dim^3 basis triples, so a 60-byte document of dim 120 used to run for
# minutes; every algebra in the tests and the benchmark has dim <= 24.
MAX_DIM = 64


def _is_int(value):
    """JSON integers only: bool is an int subclass, but true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(f: Field, value):
    """f.of(value) for a JSON scalar, refusing true and false."""
    if isinstance(value, bool):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return f.of(value)


def check_dim(dim):
    """Refuse a dimension beyond MAX_DIM before anything of that size is built."""
    if dim > MAX_DIM:
        raise DocumentError(f"dimension {magnitude(dim)} exceeds the supported bound {MAX_DIM}")


def field_to_json(f: Field):
    return "Q" if not f.is_finite else {"p": f.p}


def field_from_json(value) -> Field:
    if value == "Q":
        return Field.rationals()
    if isinstance(value, dict) and set(value) == {"p"} and _is_int(value["p"]):
        try:
            return Field.prime(value["p"])
        except FieldError as exc:
            raise DocumentError(str(exc)) from exc
    raise DocumentError(f"unrecognized field spec {quoted(value)}")


def serialize_algebra(alg: LeibnizAlgebra) -> dict:
    f = alg.field
    brackets = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            vec = alg.structure[i][j]
            if any(vec):
                brackets.append({
                    "left": i,
                    "right": j,
                    "value": [f.scalar_to_json(c) for c in vec],
                })
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_json(f),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": brackets,
    }


def algebra_from_document(doc, check=True) -> LeibnizAlgebra:
    """Build an algebra from a parsed document.

    With check=True the Leibniz check stops at the first offending triple and
    reports it; pass check=False to inspect invalid tensors.
    """
    if not isinstance(doc, dict):
        raise DocumentError("algebra document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {quoted(version)}")
    unknown = set(doc) - {"schema_version", "field", "dim", "basis", "brackets"}
    if unknown:
        raise DocumentError(f"unknown document keys {quoted(sorted(unknown))}")
    f = field_from_json(doc.get("field"))
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 0:
        raise DocumentError(f"dim must be a non-negative integer, got {quoted(dim)}")
    check_dim(dim)
    basis = doc.get("basis", [])
    if not isinstance(basis, list) or (basis and (
            len(basis) != dim or not all(isinstance(b, str) for b in basis)
            or len(set(basis)) != dim)):
        raise DocumentError("basis must list one distinct name per dimension")
    table = {}
    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise DocumentError("brackets must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "value"}:
            raise DocumentError(f"malformed bracket entry {quoted(entry)}")
        i, j, value = entry["left"], entry["right"], entry["value"]
        if not (_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim):
            raise DocumentError(f"bracket indices ({quoted(i)}, {quoted(j)}) out of range")
        if (i, j) in table:
            raise DocumentError(f"duplicate bracket entry for ({i}, {j})")
        if not isinstance(value, list) or len(value) != dim:
            raise DocumentError(f"bracket value for ({i}, {j}) must have {dim} coefficients")
        try:
            table[(i, j)] = tuple(_scalar(f, c) for c in value)
        except (FieldError, ValueError, TypeError) as exc:
            raise DocumentError(f"bad coefficient in bracket ({i}, {j}): {exc}") from exc
    alg = LeibnizAlgebra.from_structure(f, dim, table, basis_names=tuple(basis))
    first = next(violations(alg), None) if check else None
    if first is not None:
        residual = [f.scalar_to_json(c) for c in first.residual]
        raise DocumentError(
            f"Leibniz identity fails at basis triple {first.triple}: residual {residual}")
    return alg


def read_json(text: str, source=None):
    """The value of a JSON text, the one way leibalg reads JSON.  A text that
    is not JSON raises DocumentError("invalid JSON[ in source]: ...")."""
    where = f"invalid JSON in {cut(source)}" if source else "invalid JSON"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}: {exc}") from exc
    # the interpreter's words for these two differ between versions, so they
    # are not quoted
    except ValueError as exc:  # an integer literal past the int-string limit
        raise DocumentError(f"{where}: a number has too many digits") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise DocumentError(f"{where}: values nested too deeply") from exc


def parse_algebra_json(text: str, check=True) -> LeibnizAlgebra:
    return algebra_from_document(read_json(text), check=check)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def content_hash(doc) -> str:
    return "sha256:" + sha256(canonical_json(doc).encode()).hexdigest()


def algebra_hash(alg: LeibnizAlgebra) -> str:
    return content_hash(serialize_algebra(alg))


def convert_field(alg: LeibnizAlgebra, field: Field) -> LeibnizAlgebra:
    """Reinterpret an algebra over another field.

    Only the identity and reduction from Q to a prime field are meaningful;
    reading prime-field residues as anything else is refused.
    """
    if alg.field == field:
        return alg
    if alg.field.is_finite:
        raise DocumentError(
            f"cannot reinterpret coefficients over {alg.field} as {field}")
    return LeibnizAlgebra.from_structure(field, alg.dim, alg.structure,
                                         basis_names=alg.basis_names)


def matrix_to_json(m: Matrix):
    f = m.field
    return [[f.scalar_to_json(c) for c in row] for row in m.entries]


def matrix_from_json(field: Field, rows, nrows, ncols) -> Matrix:
    if (not isinstance(rows, list) or len(rows) != nrows
            or any(not isinstance(r, list) or len(r) != ncols for r in rows)):
        raise DocumentError(f"expected a {nrows}x{ncols} matrix")
    try:
        entries = tuple(tuple(_scalar(field, c) for c in r) for r in rows)
    except (FieldError, ValueError, TypeError) as exc:
        raise DocumentError(f"bad matrix coefficient: {exc}") from exc
    return Matrix(field, nrows, ncols, entries)


def serialize_witness(w) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "eta": matrix_to_json(w.eta.matrix),
        "xi": matrix_to_json(w.xi.matrix),
    }
