"""Log-space arithmetic for categorical beliefs.

Belief updates are sums of log-space messages pushed through a softmax.
The trial kernel in ``simulate`` runs them on whole belief stacks; the
one-agent reference it is tested against lives with the tests, in
``tests/reference.py``.
"""

import numpy as np

PROB_FLOOR = 1e-16
LOG_FLOOR = float(np.log(PROB_FLOOR))

# Factor-wise belief updates iterate until the largest elementwise change
# drops below SWEEP_TOL, or MAX_SWEEPS passes.
SWEEP_TOL = 1e-6
MAX_SWEEPS = 16


def floored_log(p: np.ndarray) -> np.ndarray:
    """Elementwise log with exact zeros mapped to LOG_FLOOR instead of -inf.

    Positive entries keep their true log, however small, so converting a
    distribution to log space and back is lossless away from hard zeros.
    """
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, LOG_FLOOR)
    return np.log(p, where=p > 0, out=out)


def last_axis_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, for a stack of many short rows in one elementwise pass.

    numpy reduces a short last axis one row at a time; the maxima of a node-major copy of the rows
    come from one pass down its columns. A max is exact, so the order gives the same result.
    """
    n = x.shape[-1]
    return np.ascontiguousarray(x.reshape(-1, n).T).max(axis=0).reshape(x.shape[:-1])


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; invariant to adding a constant to a row."""
    z = np.asarray(logits, dtype=float)
    z = z - last_axis_max(z)[..., None]
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
