"""Built-in example algebras.

Only algebras used throughout the documentation and tests ship here: the two
Leibniz algebras of the worked isoclinism example, the two-dimensional
quotient that exhibits their common commutator structure, and parametric
abelian algebras.  Entries are constructed over a caller-chosen field
(default Q); their structure constants are integers, so any supported field
works.
"""

from __future__ import annotations

from .errors import CatalogError, DocumentError

# name -> (dim, structure entries {(i, j): vector}, basis names, description)
_FIXED = {
    "paper_g1": (2, {(0, 0): (0, 1), (1, 0): (0, 1)}, ("e1", "e2"),
                 "dim 2: [e1,e1] = [e2,e1] = e2"),
    "paper_g2": (3, {(0, 0): (0, 0, 1), (1, 0): (0, 0, 1), (2, 0): (0, 0, 1)},
                 ("a1", "a2", "a3"), "dim 3: [a1,a1] = [a2,a1] = [a3,a1] = a3"),
    "paper_q2": (2, {(0, 0): (0, 1), (1, 0): (0, 1)}, ("a1", "a3"),
                 "dim 2 quotient of paper_g2 by its Lie-center"),
}

ABELIAN_PREFIX = "abelian_"


def catalog_names():
    """Entry names; abelian_n stands for the family abelian_1, abelian_2, ..."""
    return tuple(sorted(_FIXED)) + ("abelian_n",)


def describe(name: str) -> str:
    if name in _FIXED:
        return _FIXED[name][3]
    if name == "abelian_n":
        return "parametric abelian algebra: use abelian_<dim>, e.g. abelian_3"
    from .fields import quoted  # here only: `catalog list` loads no layer

    raise CatalogError(f"unknown catalog entry {quoted(name)}")


def catalog_entry(name: str, field: Field | None = None) -> LeibnizAlgebra:
    """The entry name over field (default Q).  abelian_<n> takes the decimal
    digits int() reads; one past the int-string limit is refused without
    quoting it."""
    from .algebra import LeibnizAlgebra
    from .documents import MAX_DIM, check_dim
    from .fields import Field, quoted

    field = field if field is not None else Field.rationals()
    if name in _FIXED:
        dim, entries, basis_names, _ = _FIXED[name]
        return LeibnizAlgebra.from_structure(field, dim, entries, basis_names=basis_names)
    if name == "abelian_n":
        raise CatalogError("abelian_n is parametric: pick a dimension, e.g. abelian_2")
    suffix = name[len(ABELIAN_PREFIX):]
    if not (name.startswith(ABELIAN_PREFIX) and suffix.isdecimal()):
        raise CatalogError(f"unknown catalog entry {quoted(name)}")
    try:
        dim = int(suffix)
    except ValueError:  # more digits than the interpreter's int-string limit
        raise DocumentError(f"the dimension of {ABELIAN_PREFIX}<n> has too many digits; "
                            f"the supported bound is {MAX_DIM}") from None
    check_dim(dim)
    return LeibnizAlgebra.abelian(field, dim)
