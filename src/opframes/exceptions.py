"""Exception types of the package."""


class ScenarioError(ValueError):
    """Schema violation; ``field_path`` names the offending field, or is empty
    for the document as a whole, whose message is then the bare message."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}" if field_path else message)
        self.field_path = field_path


class NotAFrame(Exception):
    """Operation requires a frame: lower bound A > tol * B (``frames.require_frame``)."""


class SingularFrameOperator(NotAFrame):
    """Frame operator has a numerically zero eigenvalue; direct inversion refused."""


class NoConvergence(Exception):
    """Iteration hit its step limit before reaching the requested residual;
    ``predicted_iterations`` is the count its a-priori bound asked for."""

    def __init__(self, message, residual=None, iterations=None, predicted_iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.predicted_iterations = predicted_iterations
