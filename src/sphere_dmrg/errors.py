"""Exception types shared across the package."""


class SphereDMRGError(Exception):
    """Base class for all errors raised by this package."""


class ContractShapeError(SphereDMRGError):
    """Operand shapes do not fit a contraction or a QR."""


class InputError(SphereDMRGError):
    """Invalid argument, config field, or target specification."""


class GaugeError(SphereDMRGError):
    """Mixed-canonical gauge invariants are violated beyond tolerance."""
