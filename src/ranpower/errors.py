"""Exception types shared across the package.

Bad input of any kind raises :class:`ValidationError`: a config document
that does not parse, a config value out of range, and a hand-built
``Scenario`` or ``ReplayMemory`` that cannot work.  The command line maps
it to exit 1.
"""


class RanPowerError(Exception):
    """Base class for every error raised by this package."""


class DistanceTooSmall(RanPowerError, ValueError):
    """Transmitter-receiver distance fell below the model's validity floor."""


class NonPositivePower(RanPowerError, ValueError):
    """A linear power value was zero or negative where positive is required."""


class InsufficientSamples(RanPowerError, ValueError):
    """Replay memory does not yet hold strictly more samples than a minibatch."""


class EmptyMemory(RanPowerError, ValueError):
    """An empirical statistic was requested from an empty replay memory."""


class ArchitectureMismatch(RanPowerError, ValueError):
    """Two networks (or a checkpoint) disagree on layer sizes."""


class SearchSpaceTooLarge(RanPowerError, ValueError):
    """Exhaustive enumeration was asked for more joint actions than allowed."""


class ValidationError(RanPowerError, ValueError):
    """Bad input; the message says what is wrong and names the config key,
    or the line of a document that does not parse."""


class InvariantViolation(RanPowerError, RuntimeError):
    """A runtime invariant that must hold by construction was broken."""
