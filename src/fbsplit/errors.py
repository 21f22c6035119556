"""Exceptions shared across the solvers and the benchmark harness."""

__all__ = ["ConfigurationError", "DivergenceError"]


class ConfigurationError(ValueError):
    """Raised when parameters violate a method's admissible range."""


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the set of finite vectors.

    Carries the last fully finite state on the ``state`` attribute (None
    before k=1) so a caller can inspect or log the partial run, its index
    on ``k`` (0 before k=1), and the ``reason``.  When the state is a block
    of lockstep rows, ``rows`` lists the rows that left; it is None for a
    single run.
    """

    def __init__(self, reason, state=None, rows=None):
        self.k = 0 if state is None else state.k
        super().__init__(f"{reason} at k={self.k}")
        self.reason = reason
        self.state = state
        self.rows = rows
