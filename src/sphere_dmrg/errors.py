"""Exception types shared across the package."""


class SphereDMRGError(Exception):
    """Base class for all errors raised by this package."""


class ContractShapeError(SphereDMRGError):
    """Axis lists or axis lengths are incompatible for a contraction."""


class RankDeficiencyError(SphereDMRGError):
    """A QR factor has a numerically zero diagonal entry."""

    def __init__(self, column: int, value: float):
        self.column = column
        self.value = value
        super().__init__(
            f"rank-deficient matrix: |R[{column},{column}]| = {abs(value):.3e} < 1e-14"
        )


class InputError(SphereDMRGError):
    """Invalid argument, config field, or target specification."""


class BoundaryError(SphereDMRGError):
    """Gauge move would leave the chain."""


class DenseSizeError(InputError):
    """Dense amplitude vector would exceed the size guard."""


class GaugeError(SphereDMRGError):
    """Mixed-canonical gauge invariants are violated beyond tolerance."""
