"""Exception types shared across the package."""


class StatMenusError(Exception):
    """Base class for all package-specific errors."""


class InvalidModelError(StatMenusError, ValueError):
    """A test model violates its structural requirements."""


class UnsupportedModelError(StatMenusError, TypeError):
    """An operation is undefined for the given model kind."""


class InvalidPotentialError(StatMenusError, ValueError):
    """A candidate potential fails the convexity/participation conditions."""


class InfeasibleMenuError(StatMenusError, RuntimeError):
    """A requested menu construction is infeasible.

    ``bound`` carries the limiting type of an elicitable-range violation.
    """

    def __init__(self, message, *, bound=None):
        super().__init__(message)
        self.bound = bound


class ParticipationError(StatMenusError, ValueError):
    """A type opts out of a menu where the quantity asked for needs it to take a contract."""


class ConfigError(StatMenusError, ValueError):
    """A run configuration failed validation.

    ``errors`` is a list of ``(json_pointer, message)`` pairs.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.errors)
        super().__init__(f"invalid configuration: {lines}")
