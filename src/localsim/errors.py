"""Exception types shared across the package."""


class LocalSimError(Exception):
    """Base class for every error raised by this package."""


class MalformedWordError(LocalSimError):
    """A word or point uses letters outside the alphabet."""


class InvalidCodeError(LocalSimError):
    """A word set is not a prefix code of the required kind."""


class MalformedStructureError(LocalSimError):
    """A self-similar group description has the wrong shape."""


class CompositionDomainError(LocalSimError):
    """Composed maps whose domain and codomain do not meet."""


class NoSuchRowError(LocalSimError):
    """A table row was addressed by a source word it does not contain."""


class NotInvertibleError(LocalSimError):
    """Inversion was requested for a non-invertible table."""


class IncompatibleElementsError(LocalSimError):
    """Operands live over different alphabets or different structures."""


class UnsupportedStructureError(LocalSimError):
    """The operation is only defined for another alphabet/structure, or up to a size limit."""


class InvalidClassError(LocalSimError):
    """A table does not describe an embedding class representative."""


class InvalidWallError(LocalSimError):
    """A purported wall is not a bipartition, or a move does not act on walls."""


class LiteralParseError(LocalSimError):
    """A literal could not be parsed; carries row/column positions."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        where = ""
        if row is not None:
            where += f" (row {row}"
            where += f", column {column})" if column is not None else ")"
        elif column is not None:
            where += f" (column {column})"
        super().__init__(message + where)
        self.row = row
        self.column = column
