"""Exception types shared across the engine."""


class DoubleBarrierError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DoubleBarrierError):
    """Potential parameters violate the structural conditions."""


class InadmissibleEnergy(DoubleBarrierError):
    """Energy too close to a point where the formulas degenerate."""

    def __init__(self, energy: float, message: str):
        super().__init__(message)
        self.energy = energy


class SingularEnergy(InadmissibleEnergy):
    """E within tolerance of U +/- m for some region, where the wave
    vector vanishes and the spinor weights alpha, beta blow up."""


class BoundaryEnergy(InadmissibleEnergy):
    """E at or below threshold, or within tolerance of a range or zone
    boundary, where classification is ill defined."""


class NumericalOverflow(DoubleBarrierError):
    """A boundary exponential, or its exponent, left double-precision
    range."""


class DegenerateMatrix(DoubleBarrierError):
    """scatter's incident amplitude (a of the bounded walk, M11 of the
    product up to a nonzero factor) vanished; flux conservation forbids
    this, so it signals a transcription bug rather than physics."""


class SingularSystem(DoubleBarrierError):
    """The boundary-matching linear system could not be solved to the
    required residual."""
