"""Exception types shared across the package."""


class BeliefShareError(Exception):
    """Base class for all package errors."""


class EmptyInput(BeliefShareError):
    """An operation received an empty vector or list where content is required."""


class ShapeError(BeliefShareError):
    """Array dimensions do not match the declared factor/outcome sizes."""


class ConfigError(BeliefShareError):
    """A scenario configuration is invalid; the message names the offending field."""


class CapExceeded(BeliefShareError):
    """A request is over a resource cap: steps, agents, horizon, repeats, trials, policies, or the
    nodes of a graph fixture, including a node number too long to read."""


class FileAccessError(BeliefShareError):
    """A config or graph fixture cannot be read, or the outputs cannot be written; the message
    starts ``cannot read config:``, ``cannot read graph fixture:`` or ``cannot write outputs:``."""


def check_cap(what: str, cap: int, count: int) -> None:
    """Raise CapExceeded if ``count`` is over ``cap``."""
    if count > cap:
        raise CapExceeded(f"{count} {what} exceed the cap of {cap}")
