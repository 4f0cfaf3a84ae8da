"""Exception hierarchy shared across the package."""


class HypflowError(Exception):
    """Base class for all domain errors raised by this package."""


class NonConvergence(HypflowError):
    """An iterative solver exceeded its iteration cap."""


class NotHyperbolic(HypflowError):
    """An operation requiring a hyperbolic matrix got a non-hyperbolic one."""


class DimensionMismatch(HypflowError):
    """Operands have incompatible dimensions."""


class ShiftTooSmall(HypflowError):
    """The computed diagonal shift is not large enough to clear the tolerance band."""


class InvalidClass(HypflowError):
    """A requested stable/unstable dimension split is inconsistent."""


class NonAscendingGrid(HypflowError):
    """A time grid is not strictly ascending."""


class UnsupportedDimension(HypflowError):
    """The operation is only defined for a specific matrix dimension."""


class FlowOverflow(HypflowError):
    """The flow leaves the floating-point range on the requested time grid."""
