"""Exception types shared across the package."""


class EvidkitError(Exception):
    """Base class for all package errors."""


class EmptyFocal(EvidkitError):
    """Mass assigned to the empty set."""


class NegativeMass(EvidkitError):
    """Negative mass entry."""


class ZeroTotal(EvidkitError):
    """Total mass too small to normalize."""


class OutOfRange(EvidkitError):
    """Scalar parameter outside its admissible interval."""


class InvalidFocal(EvidkitError):
    """Focal set not admissible for the operation (empty set or full frame)."""


class FrameMismatch(EvidkitError):
    """Operands defined on different frames, or subset outside the frame."""


class TotalConflict(EvidkitError):
    """Dempster combination attempted on fully conflicting evidence."""


class DimensionMismatch(EvidkitError):
    """Input vector dimension does not match the model."""


class StaleCache(EvidkitError):
    """Backward pass called with a cache from different parameters."""


class ShapeMismatch(EvidkitError):
    """Array arguments have incompatible shapes."""


class AllZeroDenominator(EvidkitError):
    """Overlap loss undefined: prediction and ground truth both empty."""


class MalformedInput(EvidkitError):
    """Data that cannot be read as numbers: a bad data file, or NaN/inf inputs."""


class NonFiniteLoss(EvidkitError):
    """Training loss became NaN or infinite."""


class Empty(EvidkitError):
    """Metric evaluated on an empty collection."""
