"""Every exception class of the library, in a module that imports nothing.

Each layer re-exports its own classes (`leibalg.fields.FieldError is
leibalg.errors.FieldError`), so the CLI can catch any of them without
loading the layer that raises it.
"""


class FieldError(ValueError):
    """Raised for unusable coefficient fields or non-field scalars."""


class LinalgError(ValueError):
    pass


class AlgebraError(ValueError):
    pass


class MorphismError(ValueError):
    pass


class DocumentError(ValueError):
    """Malformed or semantically invalid interchange document."""


class ExtensionError(ValueError):
    pass


class IsoclinismError(ValueError):
    pass


class SearchBoundError(IsoclinismError):
    """The requested search would enumerate more of GL(n, F_p) than allowed."""


class CatalogError(KeyError):
    pass
