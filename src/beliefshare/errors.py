"""Exception types shared across the package; each kind is one exit code in ``cli.ERROR_EXITS``."""


class BeliefShareError(Exception):
    """Base class for all package errors."""


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
