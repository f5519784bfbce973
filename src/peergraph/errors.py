"""Exception types shared across the package."""


class PeergraphError(Exception):
    """Base class for all errors raised by this package."""


class SnapshotFormatError(PeergraphError):
    """Snapshot dump is unreadable or its top-level structure is malformed."""


class GroundTruthFormatError(PeergraphError):
    """A ground-truth file could not be read."""


class EmptyGraphError(PeergraphError):
    """No positive-capacity membership survived graph construction."""


class ConvergenceError(PeergraphError):
    """An iterative solver did not reach its tolerance within the iteration cap."""


class CensorError(PeergraphError):
    """A matrix column has no off-diagonal mass and cannot be re-normalized."""


class SubsetMismatchError(PeergraphError):
    """Two reduced matrices differ in node subset or order, direction, censoring or alpha."""

