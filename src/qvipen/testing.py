"""Random instance generators and property probes.

Shared by the test-suite and the `verify` command so both exercise the same
distributions.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import AffineSystem

__all__ = ["random_affine_system", "monotonicity_slack"]


def random_affine_system(rng, d: int = 2, n: int = 2, gamma: float = 1.0) -> AffineSystem:
    """Random affine system, monotone with the given constant by construction.

    Off-diagonal entries are nonpositive and each diagonal dominates its row by
    at least gamma, which is exactly the structure the assembled models have.
    """
    size = d * n
    off = -rng.uniform(0.0, 1.0, (size, size))
    off *= rng.uniform(size=(size, size)) < 0.5
    np.fill_diagonal(off, 0.0)
    diag = -off.sum(axis=1) + gamma + rng.uniform(0.0, 1.0, size)
    matrix = sp.csr_matrix(off + np.diag(diag))
    rhs = rng.uniform(-1.0, 1.0, (d, n))
    return AffineSystem(matrix, rhs, gamma=gamma)


def monotonicity_slack(system: AffineSystem, u, v) -> float:
    """Slack in the argmax-component growth condition for the pair (u, v).

    At a maximizer (i, l) of u - v with nonnegative max, a monotone system
    satisfies F_i(u)_l - F_i(v)_l >= gamma * (u^i_l - v^i_l); the slack is the
    left side minus the right side, and 0.0 when the condition is vacuous
    (max negative).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = u - v
    i, l = divmod(int(np.argmax(w)), w.shape[1])
    if w[i, l] < 0.0:
        return 0.0
    fu = system.evaluate(u)
    fv = system.evaluate(v)
    return float(fu[i, l] - fv[i, l] - system.gamma * w[i, l])
