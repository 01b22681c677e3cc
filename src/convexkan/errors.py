"""Exception types shared across the package."""


class ConvexKanError(Exception):
    """Base class for all package errors; ``row`` is the index of the row a
    refusal is about, within the block of a file it was read from (-1 for
    the block's header)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigurationError(ConvexKanError):
    """Invalid setup: bad knot vectors, unsupported derivative orders, bad dims."""


class EvaluationError(ConvexKanError):
    """Non-finite or otherwise invalid values encountered during evaluation."""


class InadmissibleDeformationError(ConvexKanError):
    """Deformation gradient with non-positive determinant."""


class SolverError(ConvexKanError):
    """Nonlinear or linear solve failure."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TrainingError(ConvexKanError):
    """Training aborted (non-finite loss, all ensemble members failed, ...)."""


class DataError(ConvexKanError):
    """Malformed mesh/dataset/checkpoint files or data."""
