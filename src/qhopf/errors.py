"""Exception types shared across the package."""


class QhopfError(Exception):
    """Base class for everything raised deliberately by this package."""


class FieldMismatch(QhopfError):
    pass


class NoSuchRoot(QhopfError):
    pass


class ArityMismatch(QhopfError):
    pass


class ShapeMismatch(QhopfError):
    pass


class ShapeError(QhopfError):
    """Structural defect in an input document (bad index range, wrong length)."""


class NotInvertible(QhopfError):
    pass


class DivisionByZero(NotInvertible):
    """The inverse of the scalar 0."""


class ParseError(QhopfError):
    def __init__(self, message, line=None, column=None, where=None):
        self.line = line
        self.column = column
        self.where = where
        loc = ""
        if where is not None:
            loc = " at %s" % where
        elif line is not None:
            loc = " at line %d, column %d" % (line, column if column is not None else 0)
        super().__init__(message + loc)


class ArityError(QhopfError):
    pass


class UndefinedName(QhopfError):
    pass


class MissingR(QhopfError):
    pass


class InvalidTwist(QhopfError):
    pass


class Exhausted(QhopfError):
    pass


class BudgetExceeded(QhopfError):
    def __init__(self, message, required=None):
        self.required = required
        super().__init__(message)


class InternalInconsistency(QhopfError):
    """A property guaranteed by theory failed on concrete data: a built-in
    example or cocycle fails its own construction check, or the inputs of
    `recover_modifier` are not antipode variants of each other.  Builders
    that run on a verified datum do not raise it; they assume the axioms.
    """


class IncompatibleDatum(QhopfError):
    pass
