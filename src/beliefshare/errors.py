"""Exception types, each one exit code in ``cli.ERROR_EXITS``, and the one check of each kind of input:
``check_count`` (counts and caps), ``check_index`` (node indices and outcomes), ``check_prior`` (priors)."""

import numpy as np


class BeliefShareError(Exception):
    """Base class for all package errors."""


class ConfigError(BeliefShareError):
    """A scenario configuration is invalid; the message names the offending field."""


class CapExceeded(BeliefShareError):
    """A request is over a resource cap: steps, agents, horizon, repeats, trials, policies, traced
    steps x agents x nodes, or the nodes of a graph, including a fixture's node number too long to read."""


class FileAccessError(BeliefShareError):
    """A config or graph fixture cannot be read, or the outputs cannot be written; the message
    starts ``cannot read config:``, ``cannot read graph fixture:`` or ``cannot write outputs:``."""


def check_count(what: str, value, low: int, cap: int | None = None) -> int:
    """``value`` as an int; ConfigError unless a non-bool integer >= ``low``; CapExceeded over ``cap``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{what}: must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{what}: must be >= {low}, got {value}")
    if cap is not None and value > cap:
        raise CapExceeded(f"{what}: {value} is over the cap of {cap}")
    return int(value)


def check_index(what: str, value, size: int) -> int:
    """``value`` as an int; ConfigError unless an integer in 0..size-1: out of range is no cap."""
    if check_count(what, value, 0) >= size:
        raise ConfigError(f"{what}: must be < {size}, got {value}")
    return int(value)


def check_prior(what: str, prior, n: int) -> np.ndarray:
    """``prior`` as a float array; ConfigError unless ``n`` finite numbers >= 0 summing to 1 within 1e-9."""
    try:
        prior = np.asarray(prior, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: entries must be numbers") from exc
    if prior.shape != (n,):
        raise ConfigError(f"{what}: must hold {n} entries, got shape {prior.shape}")
    if not np.all(np.isfinite(prior)):
        raise ConfigError(f"{what}: entries must be finite")
    if np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-9:
        raise ConfigError(f"{what}: must be a normalized distribution")
    return prior
