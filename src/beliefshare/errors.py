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
    """A request is over a resource cap: graph nodes, trial steps, agents, sweep trials or policies."""


def check_cap(what: str, cap: int, base: int, exponent: int, factor: int = 1) -> None:
    """Raise CapExceeded if ``factor * base**exponent`` is over ``cap``.

    Multiplies by ``base`` one step at a time and stops once past the cap,
    so a huge exponent builds no huge number.
    """
    if base < 2:
        exponent = 0  # base 1: the power is 1
    count, done = factor, 0
    while count <= cap and done < exponent:
        count *= base
        done += 1
    if count > cap:
        if done < exponent:  # the power is not built: name it
            count = f"{base}**{exponent}" + (f" x {factor}" if factor > 1 else "")
        raise CapExceeded(f"{count} {what} exceed the cap of {cap}")
