"""Exception types shared across the package."""


class BhmError(Exception):
    """Base class for all package errors."""


class ZeroDivisorError(BhmError, ZeroDivisionError):
    """Inversion of a bicomplex number with (numerically) zero complex norm."""


class PoleEncounteredError(BhmError, ZeroDivisionError):
    """A division node of an expression tree was evaluated at a pole."""


class OutOfDomainError(BhmError):
    """Chart or transition applied outside its domain."""


class DegenerateDirectionError(BhmError):
    """Null direction fed to a map that requires CN(xi) != 0."""


class DegeneratePointError(BhmError):
    """Gauss map requested at a gradient with vanishing complex norm."""


class RangeOverflowError(BhmError, OverflowError):
    """A result left the double range, such as |G(q)|^2 at a large parameter."""


class InvalidInputError(BhmError, ValueError):
    """Input violates a stated precondition."""


class DegenerateAllComponentsError(BhmError):
    """A Ringleb component of the congruence polynomial vanished identically."""


class BranchJumpError(BhmError):
    """Root tracking jumped between branches inside a finite-difference stencil."""


class NotInSliceError(BhmError):
    """Value does not lie in the embedded real-slice codomain."""


class ExprSchemaError(BhmError, ValueError):
    """Malformed JSON for an expression tree or scene configuration."""
