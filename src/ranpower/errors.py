"""Exception types shared across the package.

Bad input of any kind raises :class:`ValidationError`: a config document
that does not parse, a config value out of range, repeated sweep values, an
oracle grid beyond its cap, a hand-built ``Scenario``, ``QNetwork`` or
``ReplayMemory`` that cannot work (say, coordinates not shaped (N, 2)), a
weights file that does not match its header, and a minibatch or statistic
asked of a memory too small for it.  The command line maps it to exit 1.
:class:`InvariantViolation` marks a check of something that holds by
construction; it exits 2, like any other runtime failure.
"""


class RanPowerError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RanPowerError, ValueError):
    """Bad input; the message says what is wrong and names the config key,
    the line, the file or the argument at fault."""


class InvariantViolation(RanPowerError, RuntimeError):
    """A runtime invariant that must hold by construction was broken."""
