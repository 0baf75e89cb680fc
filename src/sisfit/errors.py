"""Exception types shared across the package."""


class SisfitError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(SisfitError):
    """An input failed a documented precondition."""


class EnergyOverflow(ValidationError):
    """The energy of the samples, without the cell volume, overflows float64."""


class ConvergenceError(SisfitError):
    """LAPACK's Hermitian eigensolver reported that it did not converge."""
