"""Exception hierarchy shared by the engines, the scanner and the CLI.

The CLI maps these onto process exit codes, so keep the taxonomy stable:
cross-check failures are the "numerics went wrong" class (exit 3), domain and
validation problems are usage errors (exit 64).
"""


class EtaFloorError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EtaFloorError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergenceError(EtaFloorError):
    """The requested tolerance is unreachable within the configured term caps."""


class CrossCheckError(EtaFloorError):
    """Two independent evaluation routes disagree beyond their combined error budget."""

    def __init__(self, message: str, *, gap: float | None = None, budget: float | None = None):
        super().__init__(message)
        self.gap = gap
        self.budget = budget


class IllConditionedError(EtaFloorError):
    """The conversion factor is too small for a reliable division."""


class SingularityError(IllConditionedError):
    """Evaluation requested inside the exclusion radius of the pole at s = 1."""


class NoZeroFoundError(EtaFloorError):
    """A zero bracket contains no point with residual below the acceptance tolerance."""

    def __init__(self, message: str, *, best_t: float | None = None, best_residual: float | None = None):
        super().__init__(message)
        self.best_t = best_t
        self.best_residual = best_residual


class DegenerateGeometryError(EtaFloorError):
    """Zero-geometry vectors too small for a meaningful angle."""
