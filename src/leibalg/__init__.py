"""leibalg: exact-arithmetic Leibniz algebras.

Finite-dimensional Leibniz algebras over Q or an odd prime field, with the
relative (Lie-) invariants, Lie-central extensions and the Lie-isoclinism
search/decision machinery, all in exact arithmetic.

The names of `__all__` are loaded from their modules on first access
(PEP 562), so `python -m leibalg` imports only the layers its command runs.
"""

__version__ = "0.1.0"

# public name -> module that defines it
_EXPORTS = {
    "Field": "fields",
    "FieldError": "errors",
    "LinearMap": "linalg",
    "Matrix": "linalg",
    "Subspace": "linalg",
    "intersect": "linalg",
    "kernel": "linalg",
    "image": "linalg",
    "quotient": "linalg",
    "rref": "linalg",
    "span": "linalg",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
