"""Exception types shared across the package."""


class LoopBraidError(Exception):
    pass


class InvalidParameters(LoopBraidError):
    """Caller-supplied parameters lie outside a construction's domain."""


class NotAUnit(LoopBraidError):
    """Inversion requested for a non-invertible scalar."""


class NonFieldModulus(LoopBraidError):
    """Elimination over Z_m (or the Laurent ring) reduced a row to nonzero
    entries none of which is a unit."""


class SingularImage(LoopBraidError):
    """A generator image that must be invertible is not."""


class GroupTypeViolation(LoopBraidError):
    """The group-type compatibility equation fails; carries the offending (i, j, k)."""

    def __init__(self, triple, message=""):
        self.triple = triple
        super().__init__(message or "group-type equation fails at %s" % (triple,))


class NotGroupType(LoopBraidError):
    pass


class NotStochastic(LoopBraidError):
    pass


class IncompleteMatch(LoopBraidError):
    """A restriction could not be fully resolved into known summands."""


class NotIdempotent(LoopBraidError):
    pass
