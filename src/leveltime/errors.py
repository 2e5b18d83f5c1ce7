"""Shared exception types, and the rules that check every value from
outside: each returns the value as the caller stores it, or raises an error
(``ValueError`` unless given) that names it and shows it with ``!r``."""

import math
import numbers


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


def _store(obj, rule, *names, **options):
    """Store the fields ``names`` of frozen ``obj`` as ``rule`` returns them."""
    for name in names:
        object.__setattr__(obj, name, rule(name, getattr(obj, name), **options))


def _float(value, other=None):
    """``value`` as a float if it is a real number that a float holds (a
    string or a boolean is not), else ``other``."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    return other


def _number(name, value, error=ValueError) -> float:
    """``value`` as a float, unless it is not a real number."""
    v = _float(value)
    if v is None:
        raise error(f"{name} must be a number, got {value!r}")
    return v


def _finite(name, *values):
    """``values`` as floats, a float for one value, unless one is not finite."""
    floats = [_float(v, math.nan) for v in values]
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} must be finite, got {', '.join(map(repr, values))}")
    return floats[0] if len(floats) == 1 else tuple(floats)


def _positive(name, value, zero=False) -> float:
    """``value`` as a float, unless it is not a real number that is finite
    and positive (or zero, with ``zero=True``)."""
    v = _float(value, math.nan)
    if not (math.isfinite(v) and (v > 0 or zero and v == 0)):
        sign = "nonnegative" if zero else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")
    return v


def _whole(name, value) -> int:
    """``value`` as an int unless it is not whole: 2.5 is never truncated."""
    if not _float(value, math.nan).is_integer():
        raise ValueError(f"{name} must be whole numbers, got {value!r}")
    return int(value)


def _integer(name, value, error=ValueError) -> int:
    """``value`` as an int, unless it is not an integer (7.0 is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _exponent(p):
    """``p`` as a float if it is a finite real number of at least 1, else None."""
    v = _float(p, math.nan)
    return v if math.isfinite(v) and v >= 1 else None


def _boolean(name, value, error=ValueError) -> bool:
    """``value`` unless it is not a boolean; a :class:`ConfigError` spells
    the booleans as JSON does."""
    if not isinstance(value, bool):
        words = "true or false" if error is ConfigError else "True or False"
        raise error(f"{name} must be {words}, got {value!r}")
    return value
