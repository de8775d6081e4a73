"""Shared exception types, and the number checks of the config parsers."""

import sys


class ConfigError(ValueError):
    """Invalid scenario configuration. Carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DivergenceError(RuntimeError):
    """A simulated state became non-finite (numerical blow-up)."""


def finite_number(value, field):
    """``value`` as a float when it is a finite int or float and not a bool;
    otherwise a ConfigError naming ``field``."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(field, f"{value!r} must be a finite number")


def positive(value, field):
    """``value``, unchanged, when it is a finite number above 0; otherwise a
    ConfigError naming ``field``."""
    if not finite_number(value, field) > 0:
        raise ConfigError(field, f"{value!r} must be positive")
    return value


def finite_numbers(values, field):
    """A list of finite numbers, each checked as by ``finite_number`` under
    ``field[i]``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(field, f"{values!r} must be a list of numbers")
    return [finite_number(v, f"{field}[{i}]") for i, v in enumerate(values)]


def integer(value, field, least):
    """``value`` when it is an int (not a bool) of at least ``least``;
    otherwise a ConfigError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(field, f"{value!r} must be an integer >= {least}")
    return value
