"""Shared exception types."""

__all__ = ["ConfigurationError", "SimulationError"]


class ConfigurationError(ValueError):
    """A run configuration or declared shape constraint is violated."""


class SimulationError(RuntimeError):
    """A runtime invariant of the simulation was violated."""
