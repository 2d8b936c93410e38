"""Exception types shared across the package."""

from __future__ import annotations


class AggsplitError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(AggsplitError):
    """An array does not have the shape required by the game dimensions."""


class EmptyLocalSet(AggsplitError):
    """A local decision set is empty (box caps cannot reach the required total)."""

    def __init__(self, agent: int | None = None, message: str = ""):
        self.agent = agent
        if not message:
            who = f"agent {agent}" if agent is not None else "agent"
            message = f"local set of {who} is empty"
        super().__init__(message)


class EmptySet(AggsplitError):
    """A projection target is empty."""


class NonSmoothCost(AggsplitError):
    """A gradient oracle is required but absent."""


class NoConvergence(AggsplitError):
    """An inner iterative solve exhausted its iteration budget."""

    def __init__(self, max_iters: int, message: str = ""):
        self.max_iters = max_iters
        super().__init__(message or f"inner solve did not converge in {max_iters} iterations")


class Infeasible(AggsplitError):
    """No point satisfying the coupling constraints was found."""


class InvalidStepSizes(AggsplitError):
    """Step sizes violate the admissible open intervals."""


class GenerationFailed(AggsplitError):
    """Random instance generation exhausted its resampling budget."""


class NotCertified(AggsplitError):
    """A reference solution failed its certification checks."""


class MaxItersExceeded(AggsplitError):
    """An outer solver run ended unconverged: out of its iteration budget,
    stalled at a numerical floor above its optimality gate, or diverged.

    Carries the partial trace in ``trace``; its ``stop_reason`` says which.
    """

    def __init__(self, trace=None, message: str = ""):
        self.trace = trace
        super().__init__(message or "run ended unconverged (iteration cap, numerical floor or divergence)")
