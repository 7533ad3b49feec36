"""Exception types shared across the package; eigensolves raise numpy's LinAlgError."""


class DimensionMismatch(ValueError):
    """Operand shapes or declared factor dimensions disagree."""


class SupportViolation(ValueError):
    """A matrix has components outside the operator-space block an operation requires."""


class NotLocallyPositive(ValueError):
    """A shadow was requested of a map that does not descend to the shadow spaces."""


class InfeasibleShadow(ValueError):
    """The fiber of the given shadow contains no positive global state, or the
    boxtimes oracle could not decide that it does (verdict ``undecided``)."""
