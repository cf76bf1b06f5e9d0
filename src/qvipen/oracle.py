"""Slow, simple ground-truth solvers used to cross-check the Newton path.

Two routes: explicit pseudo-time marching, and exhaustive active-set
enumeration (desk scale only). One pair of small dense operators, K and R,
built from the definition of the penalized system, serves both and the
oracle's residual: K = [A | -b; D x I_N | -c] maps y = [vec(u), 1] to F(u)
above the argument u^j - c[i, j] - u^i of each penalty term, and
R = [I | -S x I_N] folds the clamped arguments into G(u). The march clamps
K's penalty rows at 0; the enumeration adds R's column times K's row of
each term a pattern switches on to [A | -b], and tests the pattern's signs
with K's penalty rows. They share no code with the residual or slant in
`core` that they check; from `core` they take only the problem type and
the check of their numeric arguments.

The march needs about (max diag + rho(d-1)) / gamma * ln(res0 / tol) steps:
the step is capped by the largest slant row, and each step shrinks the error
by about gamma times the step. That count is a property of the instance.
K and R are built once per solve, and a step is five numpy calls: K y, the
clamp, R's fold, delta * G(u) and u - delta * G(u), each writing into
buffers allocated once per solve, so it makes no temporaries. The march
runs in blocks of 64 steps, and the bookkeeping (residual sup-norm,
convergence, stall, restart, budget) runs once per block: one call takes
the block's residuals and a plain loop replays the per-step rules in order,
dropping the steps after a converged or restarted one. The arithmetic, and
so the trajectory and the number of residual evaluations, is bitwise that
of the plain allocating step. On the 72 verify-style instances of the
benchmark's oracle pool (557,835 residual evaluations; numpy 2.4.6, one
BLAS thread, 2-core shared host) a step went from about 5.7 to about 3.5 us,
the medians of eight alternating repetitions. A per-row (Jacobi) step does
not lower the count: at rho = 1e3 the term rho(d-1) dominates every row's
diagonal, so such a step saves at most 0.2% of the steps on verify-style
random instances and 1.5% on the N = 20 two-regime grid.
"""
from __future__ import annotations

import math

import numpy as np

from .core import PenalizedProblem, _number

__all__ = [
    "OracleError",
    "MaxStepsExceeded",
    "DivergenceDetected",
    "NoConsistentPattern",
    "MultiplePatterns",
    "pseudo_time_solve",
    "active_set_enumerate",
]

# patterns solved per stacked batch of the enumeration
_CHUNK = 4096
# march steps taken between two rounds of step bookkeeping
_BLOCK = 64


class OracleError(Exception):
    """Base class for oracle failures."""


class MaxStepsExceeded(OracleError):
    pass


class DivergenceDetected(OracleError):
    pass


class NoConsistentPattern(OracleError):
    pass


class MultiplePatterns(OracleError):
    def __init__(self, patterns):
        self.patterns = sorted(patterns)
        super().__init__(f"degenerate tie between penalty patterns {self.patterns}")


def _march_operators(prob: PenalizedProblem):
    """(K, floor, R): G(u) = R @ max(K @ [vec(u), 1], floor).

    K stacks [A | -b] above [D x I_N | -c], so K @ y holds F(u) and then the
    penalty argument of each (pair, node): row dN + t, for t = k*N + l, is
    pair k at node l. Row k of the (P, d) difference matrix D, for the k-th
    ordered pair (i, j != i) in row-major order, has +1 at j and -1 at i, and
    c[k] is the cost c[i, j]. Clamping at ``floor`` (-inf on the F rows, 0 on
    the penalty rows) gives the penalty pi(t) = max(t, 0), and
    R = [I | -S x I_N], with the (d, P) scatter S holding rho at (i, k),
    subtracts rho times each term from its regime's F row.
    """
    system = prob.system
    i, j = np.nonzero(~np.eye(system.d, dtype=bool))
    k = np.arange(i.size)
    diff = np.zeros((k.size, system.d))
    diff[k, j] = 1.0
    diff[k, i] = -1.0
    scatter = np.zeros((system.d, k.size))
    scatter[i, k] = prob.rho
    a, b = system.matrix.toarray(), system.rhs
    eye = np.eye(system.N)
    lift = np.block([
        [a, -b[:, None]],
        [np.kron(diff, eye), -np.repeat(prob.costs.costs[i, j], system.N)[:, None]],
    ])
    floor = np.zeros(lift.shape[0])
    floor[: a.shape[0]] = -np.inf
    reduce = np.hstack([np.eye(a.shape[0]), -np.kron(scatter, eye)])
    return lift, floor, reduce


def _residual(prob: PenalizedProblem, u: np.ndarray) -> np.ndarray:
    """F(u) minus the penalty, computed as one step of the march computes it."""
    lift, floor, reduce = _march_operators(prob)
    y = np.append(np.asarray(u, dtype=float).ravel(), 1.0)
    g = reduce.dot(np.maximum(lift.dot(y), floor))
    return g.reshape(prob.system.d, prob.system.N)


def pseudo_time_solve(
    prob: PenalizedProblem,
    step: float | None = None,
    tol: float = 1e-8,
    max_steps: int = 10_000_000,
) -> np.ndarray:
    """March u <- u - step * G(u) from zero until the residual sup-norm <= tol.

    The default step 0.9 / (max slant diagonal + rho*(d-1)) makes the update a
    contraction on the assembled systems, the penalty max(t, 0) being
    Lipschitz with constant 1. A non-finite residual, or one that does not
    fall for 100 steps in a row, halves the step and restarts the march from
    zero; ten halvings without recovery is a failure. ``max_steps`` counts
    residual evaluations.
    """
    max_steps = _number("max_steps", max_steps, 0, integer=True)
    if step is not None:
        step = _number("step", step, 0)
    tol = _number("tol", tol, 0)
    d, n = prob.system.d, prob.system.N
    size = d * n
    lift, floor, reduce = _march_operators(prob)
    # row s of ys is y_s = [vec(u_s), 1]; step s of a block writes G(u_s)
    # into row s of gs and u_s - delta * G(u_s) into row s + 1 of ys. Every
    # step writes into these buffers; none allocates
    ys = np.zeros((_BLOCK + 1, size + 1))
    ys[:, -1] = 1.0
    gs = np.empty((_BLOCK, size))
    y_rows, g_rows = list(ys), list(gs)
    u_rows = [y[:size] for y in y_rows]
    z = np.empty(lift.shape[0])
    dg = np.empty(size)
    if step is None:
        # the first d*n entries of K's diagonal are A's
        diag = float(np.abs(lift.diagonal()[:size]).max())
        step = 0.9 / (diag + prob.rho * (d - 1))
    # a 0-d array multiplies faster than a Python float, with the same product
    delta = np.array(step)
    halvings = 0
    stalled = 0
    prev = math.inf
    left = max_steps
    # overflow on a divergent trajectory is an anticipated signal, not an
    # error; the rest of its block runs on and is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        while left:
            k = min(_BLOCK, left)
            for s in range(k):
                lift.dot(y_rows[s], out=z)
                np.maximum(z, floor, out=z)
                reduce.dot(z, out=g_rows[s])
                np.multiply(g_rows[s], delta, out=dg)
                np.subtract(u_rows[s], dg, out=u_rows[s + 1])
            # each step's bookkeeping, replayed in order; a restart or a
            # converged row drops the steps after it
            for s, res in enumerate(np.abs(gs[:k]).max(axis=1).tolist()):
                left -= 1
                if res <= tol:
                    return u_rows[s].reshape(d, n).copy()
                if not math.isfinite(res):
                    stalled = 100
                elif res < prev:
                    stalled = 0
                else:
                    stalled += 1
                if stalled >= 100:
                    halvings += 1
                    if halvings > 10:
                        raise DivergenceDetected(
                            f"residual still not falling after {halvings - 1} step halvings"
                        )
                    delta *= 0.5
                    stalled = 0
                    prev = math.inf
                    u_rows[0][:] = 0.0
                    break
                prev = res
            else:
                # no restart: the block's last iterate opens the next block
                u_rows[0][:] = u_rows[k]
    raise MaxStepsExceeded(f"residual {res:.3e} > {tol:.3e} after {max_steps} steps")


def active_set_enumerate(prob: PenalizedProblem) -> np.ndarray:
    """Exact solve by trying every on/off pattern of the penalty terms.

    A pattern is accepted when the solution of its linear system reproduces the
    pattern's own signs (a term is on iff its argument is strictly positive).
    Exactly one pattern should survive; zero or several indicate an assembly
    bug or a degenerate tie. Patterns are solved in stacked batches; an
    exactly singular pattern matrix is skipped.
    """
    d, n = prob.system.d, prob.system.N
    bits = d * (d - 1) * n
    # checked before K and R, which are dense, are built
    if bits > 16:
        raise ValueError(f"instance has {bits} penalty terms, enumeration caps at 16")
    lift, _, reduce = _march_operators(prob)
    size = d * n
    # switching term t on adds R's column dN + t times K's row dN + t to
    # [A | -b]; row t of ``terms`` is that outer product, flattened
    top, penalty = lift[:size], lift[size:]
    terms = (reduce[:, size:].T[:, :, None] * penalty[:, None, :]).reshape(bits, -1)
    t = np.arange(bits)
    hits = []
    for start in range(0, 1 << bits, _CHUNK):
        patterns = np.arange(start, min(start + _CHUNK, 1 << bits))
        on = (patterns[:, None] >> t & 1).astype(float)
        aug = top + (on @ terms).reshape(-1, size, size + 1)
        m, rhs = aug[:, :, :size], -aug[:, :, size]
        # a zero LU pivot gives det == 0, the same test that makes gesv raise
        ok = np.linalg.det(m) != 0.0
        u = np.linalg.solve(m[ok], rhs[ok, :, None])[:, :, 0]
        # the penalty arguments, as K's penalty rows give them to the march
        active = np.hstack([u, np.ones((len(u), 1))]) @ penalty.T > 0.0
        consistent = np.all(active == (on[ok] == 1.0), axis=1)
        hits.extend(zip(patterns[ok][consistent].tolist(), u[consistent]))
    if not hits:
        raise NoConsistentPattern("no penalty pattern reproduces its own signs")
    if len(hits) > 1:
        raise MultiplePatterns([p for p, _ in hits])
    return hits[0][1].reshape(d, n)
