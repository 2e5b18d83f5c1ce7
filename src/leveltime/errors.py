"""Shared exception types."""


class InvariantViolation(RuntimeError):
    """A validated mathematical invariant failed at runtime.

    Raised by validators and by the CLI layer when computed output breaks a
    contract (for example a residual above tolerance).  Mapped to exit code 2
    by the command line tool, while plain bad input maps to exit code 1.
    """


class ConfigError(ValueError):
    """A configuration file or descriptor could not be interpreted."""


def _refuse_unknown(obj, known, what="config keys"):
    """Raise :class:`ConfigError` naming the keys of ``obj`` not in ``known``."""
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
