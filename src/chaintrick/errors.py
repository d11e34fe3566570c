"""Exception hierarchy shared by all chaintrick modules."""


class ChainTrickError(Exception):
    """Base class for all errors raised by this package."""


class GrowthOutOfRange(ChainTrickError):
    """g + delta falls outside (c, c + d): the model has no equilibrium."""


class NonPositiveEquilibrium(ChainTrickError):
    """The closed-form equilibrium lies outside the positive quadrant."""


class DelayNonPositive(ChainTrickError):
    """An operation requiring T > 0 was called with T <= 0."""


class KernelOrderInvalid(ChainTrickError):
    """Kernel order m must be an integer >= 1."""


class CapitalNonPositive(ChainTrickError):
    """A state with k <= 0 was supplied or reached during integration."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class StepFailure(ChainTrickError):
    """The adaptive integrator underflowed the minimum step size."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class InsufficientOscillations(ChainTrickError):
    """Too few (or unsettled) oscillations to measure cycle properties."""


class NoHopf(ChainTrickError):
    """No Hopf bifurcation exists in the requested parameter range."""


class NoStableRegime(ChainTrickError):
    """The equilibrium is unstable for every delay (A >= 0 regime)."""


class DegenerateTransversality(ChainTrickError):
    """The crossing speed at a candidate Hopf point is numerically zero."""


class InaccurateRoot(ChainTrickError):
    """A located root misses its equation by more than the accepted residual."""
