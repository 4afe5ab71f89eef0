"""Every exception class of the library, in a module that imports nothing.

Every class derives from LeibalgError, so one `except LeibalgError` catches
whatever the library raises, and each keeps its builtin base (ValueError,
KeyError for CatalogError).  Each layer re-exports its own classes
(`leibalg.fields.FieldError is leibalg.errors.FieldError`), so the CLI can
catch any of them without loading the layer that raises it.
"""


class LeibalgError(Exception):
    """The base of every error the library raises."""


class FieldError(LeibalgError, ValueError):
    """Raised for unusable coefficient fields or non-field scalars."""


class LinalgError(LeibalgError, ValueError):
    pass


class AlgebraError(LeibalgError, ValueError):
    pass


class MorphismError(LeibalgError, ValueError):
    pass


class DocumentError(LeibalgError, ValueError):
    """Malformed or semantically invalid interchange document."""


class ExtensionError(LeibalgError, ValueError):
    pass


class IsoclinismError(LeibalgError, ValueError):
    pass


class SearchBoundError(IsoclinismError):
    """The requested search would enumerate more of GL(n, F_p) than allowed."""


class CatalogError(LeibalgError, KeyError):
    pass
