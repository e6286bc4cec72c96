"""Exception types, each one exit code in ``cli.ERROR_EXITS``, and ``check_count``, the one count check."""

import numpy as np


class BeliefShareError(Exception):
    """Base class for all package errors."""


class ConfigError(BeliefShareError):
    """A scenario configuration is invalid; the message names the offending field."""


class CapExceeded(BeliefShareError):
    """A request is over a resource cap: steps, agents, horizon, repeats, trials, policies, or the
    nodes of a graph, including a fixture's node number too long to read."""


class FileAccessError(BeliefShareError):
    """A config or graph fixture cannot be read, or the outputs cannot be written; the message
    starts ``cannot read config:``, ``cannot read graph fixture:`` or ``cannot write outputs:``."""


def is_integer(value) -> bool:
    """The integer test of every count and node index: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(what: str, value, low: int, cap: int | None = None) -> int:
    """``value`` as an int; ConfigError unless an integer >= ``low``, CapExceeded if over ``cap``."""
    if not is_integer(value):
        raise ConfigError(f"{what}: must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{what}: must be >= {low}, got {value}")
    if cap is not None and value > cap:
        raise CapExceeded(f"{what}: {value} is over the cap of {cap}")
    return int(value)
