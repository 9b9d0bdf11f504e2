"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or violates an invariant."""


class ScheduleError(ValueError):
    """Raised when a visit-order vector is malformed for the given scenario."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration has more candidate orders, pruned ones
    included, than its budget allows.

    ``required`` is a lower bound: the candidate count reached when the
    guard stopped counting, the first one above ``budget``."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration has at least {required} candidate orders, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class CoincidentTimesError(ValueError):
    """Raised when merged update times collide and a per-leg speed is undefined."""

    def __init__(self, first: int, second: int, time_s: float):
        super().__init__(
            f"merged updates {first} and {second} share time {time_s:.6f} s; "
            "per-leg speeds are undefined"
        )
        self.pair = (first, second)
        self.time_s = time_s


class EpisodeFinishedError(RuntimeError):
    """Raised when stepping an episode that already terminated."""


class NonFiniteGradientError(FloatingPointError):
    """Raised when a training step produces a non-finite gradient."""


class DivergenceError(RuntimeError):
    """Raised when a training loss is not finite or exceeds
    ``agents.DIVERGENCE_LIMIT``."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is corrupt or mismatched."""
