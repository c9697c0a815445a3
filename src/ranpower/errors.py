"""Exception types shared across the package."""


class RanPowerError(Exception):
    """Base class for every error raised by this package."""


class DistanceTooSmall(RanPowerError, ValueError):
    """Transmitter-receiver distance fell below the model's validity floor."""


class NonPositivePower(RanPowerError, ValueError):
    """A linear power value was zero or negative where positive is required."""


class InvalidConfig(RanPowerError, ValueError):
    """A structural parameter (grid, power set, traffic model) is unusable."""


class InsufficientSamples(RanPowerError, ValueError):
    """Replay memory does not yet hold strictly more samples than a minibatch."""


class EmptyMemory(RanPowerError, ValueError):
    """An empirical statistic was requested from an empty replay memory."""


class ArchitectureMismatch(RanPowerError, ValueError):
    """Two networks (or a checkpoint) disagree on layer sizes."""


class SearchSpaceTooLarge(RanPowerError, ValueError):
    """Exhaustive enumeration was asked for more joint actions than allowed."""


class ParseError(RanPowerError, ValueError):
    """A config document could not be parsed; message carries the line number."""


class ValidationError(RanPowerError, ValueError):
    """A config value failed validation; message names the offending key."""


class InvariantViolation(RanPowerError, RuntimeError):
    """A runtime invariant that must hold by construction was broken."""
