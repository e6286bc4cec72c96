"""Log-space arithmetic for categorical beliefs.

Belief updates are sums of log-space messages pushed through a softmax.
The trial kernel in ``simulate`` runs them on whole belief stacks; the
one-agent reference it is tested against lives with the tests, in
``tests/reference.py``.
"""

import numpy as np

from .errors import EmptyInput

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


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; invariant to adding a constant to a row."""
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise EmptyInput("softmax of an empty vector")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
