"""Exception types shared across the package."""


class BeliefShareError(Exception):
    """Base class for all package errors."""


class DegenerateDistribution(BeliefShareError):
    """A probability vector has no mass to normalize (all zero) or negative entries."""


class EmptyInput(BeliefShareError):
    """An operation received an empty vector or list where content is required."""


class ShapeError(BeliefShareError):
    """Array dimensions do not match the declared factor/outcome sizes."""


class IncompleteParents(BeliefShareError):
    """A likelihood contraction is missing (or was given surplus) co-parent beliefs."""


class InvalidAction(BeliefShareError):
    """Action index outside the transition tensor's action axis."""


class FactorMismatch(BeliefShareError):
    """Messages or beliefs refer to different latent factors."""


class ConfigError(BeliefShareError):
    """A scenario configuration is invalid; the message names the offending field."""


class CapExceeded(BeliefShareError):
    """A request is over a resource cap: graph nodes, steps, agents, horizon, repeats, trials or policies."""


def check_cap(what: str, cap: int, count: int) -> None:
    """Raise CapExceeded if ``count`` is over ``cap``."""
    if count > cap:
        raise CapExceeded(f"{count} {what} exceed the cap of {cap}")
