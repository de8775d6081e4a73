"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid scenario configuration. Carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DivergenceError(RuntimeError):
    """A simulated state became non-finite (numerical blow-up)."""
