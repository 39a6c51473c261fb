"""Exception types shared across the package."""


class DatasetParseError(ValueError):
    """A dataset file could not be parsed. Carries the path and line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class DatasetIndexError(ValueError):
    """A file referenced a node or label id outside the declared range."""


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class UndefinedMetricError(ValueError):
    """The requested metric has no defined value on this input."""


class GenerationInfeasibleError(RuntimeError):
    """The synthetic generator could not reach the requested target."""

    def __init__(self, target, achieved, message=None):
        self.target = target
        self.achieved = achieved
        msg = message or f"could not reach target {target:.4f}; achieved {achieved:.4f}"
        super().__init__(msg)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or fitted block. Carries the
    offending epoch, 0 for a block fitted before the readout trains."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class CompatibilityError(ValueError):
    """A trained model cannot be applied to the given dataset."""
