"""Exception types raised by the numerical core."""


class SingularElement(Exception):
    """Algebra element is singular to working tolerance; no inverse returned."""


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
