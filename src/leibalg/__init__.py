"""leibalg: exact-arithmetic Leibniz algebras.

Finite-dimensional Leibniz algebras over Q or an odd prime field, with the
relative (Lie-) invariants, Lie-central extensions and the Lie-isoclinism
search/decision machinery, all in exact arithmetic.
"""

from .fields import Field, FieldError
from .linalg import (
    LinearMap,
    Matrix,
    Subspace,
    intersect,
    kernel,
    image,
    quotient,
    rref,
    span,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "FieldError",
    "LinearMap",
    "Matrix",
    "Subspace",
    "intersect",
    "kernel",
    "image",
    "quotient",
    "rref",
    "span",
    "__version__",
]
