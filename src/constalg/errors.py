"""Exception types shared across the package."""


class ConstalgError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(ConstalgError):
    """Operands live in different rings or have different dimension d."""


class ParseError(ConstalgError):
    """A polynomial expression does not conform to the text grammar."""


class InstanceError(ConstalgError):
    """A problem instance is malformed or degenerate (zero or constant f_i)."""


class NotAConstantError(ConstalgError):
    """The polynomial is not annihilated by the derivation."""


class PeelingError(ConstalgError):
    """A monomial is not the leading monomial of any normal-word image."""


class BudgetExceededError(ConstalgError):
    """A work bound (one of the modules' MAX_* constants) was exceeded."""
