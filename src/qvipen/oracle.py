"""Slow, simple ground-truth solvers used to cross-check the Newton path.

Two routes: explicit pseudo-time marching, and active-set enumeration of
the penalty patterns that can reproduce their own signs (desk scale only).
One pair of small dense operators, K and R, written entry by entry from
the definition of the penalized system, serves both and the oracle's
residual:
K = [A | -b; D x I_N | -c] maps y = [vec(u), 1] to F(u) above the argument
u^j - c[i, j] - u^i of each penalty term, and R = [I | -S x I_N] folds the
clamped arguments into G(u). The march clamps K's penalty rows at 0; the
enumeration adds R's column times K's row of each term a pattern switches
on to [A | -b], and tests the pattern's signs with K's penalty rows. It
tries only the patterns whose terms switched on at each node form no
directed cycle i -> j over the regimes: 625 of the 4096 at d = 3, N = 2,
listed once per shape. Each pattern is factored once, in one stacked solve;
a determinant screen runs only when that solve met an exactly singular
pattern.
They share no code with the residual in `core` or the slant in `newton`
that they check; from `core` they take only the problem type and the check
of their numeric arguments.

The march, type-II Anderson acceleration under a safeguard, is described
in `pseudo_time_solve`.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import get_lapack_funcs

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

# past steps whose differences an accelerated march step fits (Anderson's m)
_MEMORY = 6
# shortened tries of a rejected candidate before the march takes the plain
# step, each at this fraction of the last try's extrapolation from it
_RETRIES = 2
_SHORTEN = 0.1

# the LAPACK routine behind np.linalg.lstsq, called without its wrapper
_gelsd, _gelsd_lwork = get_lapack_funcs(("gelsd", "gelsd_lwork"), dtype=np.float64)


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


@functools.lru_cache(maxsize=8)
def _term_indices(d: int, n: int):
    """(low, high, pair), read-only: for each penalty term t = k*N + l, the
    columns i*N + l and j*N + l of u^i and u^j at node l, and the flat index
    i*d + j of its cost, k being the k-th ordered pair (i, j != i) in
    row-major order. They depend on the shape alone, so each problem of a
    seen shape reuses them."""
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    cols = np.arange(d * n).reshape(d, n)
    indices = cols[i].ravel(), cols[j].ravel(), np.repeat(i * d + j, n)
    for index in indices:
        index.setflags(write=False)
    return indices


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

    The three are written entry by entry into zeroed arrays: term t's row
    of K holds -1 at column i*N + l, +1 at j*N + l and -c[k] last, and its
    column of R holds -rho at row i*N + l.
    """
    system = prob.system
    size = system.d * system.N
    low, high, pair = _term_indices(system.d, system.N)
    t = np.arange(low.size)
    lift = np.zeros((size + t.size, size + 1))
    lift[:size, :size] = system.matrix.toarray()
    lift[:size, size] = -system.rhs
    penalty = lift[size:]
    penalty[t, high] = 1.0
    penalty[t, low] = -1.0
    penalty[:, size] = -prob.costs.costs.ravel()[pair]
    floor = np.zeros(size + t.size)
    floor[:size] = -np.inf
    reduce = np.zeros((size, size + t.size))
    np.fill_diagonal(reduce, 1.0)
    reduce[low, size + t] = -prob.rho
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
    """March u <- u - step * G(u) from zero, with safeguarded Anderson
    steps, until the residual sup-norm <= tol.

    The default step 0.9 / (max slant diagonal + rho*(d-1)) makes the plain
    update a contraction on the assembled systems, the penalty max(t, 0) being
    Lipschitz with constant 1.

    The march is accelerated on its own map u -> u - step * G(u): type-II
    Anderson acceleration with memory m = ``_MEMORY`` (D. G. Anderson, J. ACM
    1965; Walker & Ni, SINUM 2011). From the iterate u_k, gamma fits G(u_k) by
    least squares over the residual differences dG of the last m steps that
    lowered the residual, and the candidate is u_k - dU gamma - step *
    (G(u_k) - dG gamma), dU being the matching iterate differences. The fit
    is np.linalg.lstsq's with rcond=None, made by calling LAPACK's gelsd
    directly with a workspace queried once per solve. The memory holds only
    finite differences, so no non-finite value reaches the fit, and the fit's
    minimum-norm solution takes a rank-deficient memory.

    The safeguard (Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020) keeps a
    point only if its residual sup-norm is strictly below the current one. A
    rejected candidate is moved to ``_SHORTEN`` of its extrapolation from the
    plain step p = u_k - step * G(u_k) and tried again, the memory kept, up to
    ``_RETRIES`` times; then the march takes p and clears the memory. A plain
    step whose residual does not fall clears the memory too, so the march
    only extrapolates from a falling history, and a step too long to contract
    still shows as growth. A non-finite residual, or one that does not fall
    for 100 steps in a row, halves the step and restarts the march from zero;
    ten halvings without recovery is a failure. ``max_steps`` counts residual
    evaluations, rejected and shortened candidates included. The accelerator
    reads only the march's own iterates and residuals, so the march stays an
    oracle.
    """
    max_steps = _number("max_steps", max_steps, 0, integer=True)
    if step is not None:
        step = _number("step", step, 0)
    tol = _number("tol", tol, 0)
    d, n = prob.system.d, prob.system.N
    size = d * n
    lift, floor, reduce = _march_operators(prob)
    if step is None:
        # the first d*n entries of K's diagonal are A's
        diag = float(np.abs(lift.diagonal()[:size]).max())
        step = 0.9 / (diag + prob.rho * (d - 1))
    # the fit's LAPACK workspace, queried for the widest memory
    work, iwork, _ = _gelsd_lwork(size, _MEMORY, 1)
    work = int(work)
    eps = np.finfo(float).eps
    # K's input [vec(u), 1] at the point evaluated next
    y = np.zeros(size + 1)
    y[-1] = 1.0
    # the iterate's state [vec(u), G(u)] and residual sup-norm: an iterate's
    # residual is finite, a non-finite one restarting the march, so res is
    # inf exactly when the march has no iterate yet
    state, res = None, math.inf
    # the state differences of the last steps that lowered the residual
    memory = []
    retries, halvings, stalled = 0, 0, 0
    # overflow on a divergent trajectory, or on a wild candidate, is an
    # anticipated signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_steps):
            g = reduce.dot(np.maximum(lift.dot(y), floor))
            res_point = float(np.maximum.reduce(np.abs(g)))
            falls = res_point < res
            # a point evaluated with a nonempty memory is a fitted candidate
            if memory and not falls:
                if retries < _RETRIES:
                    # the safeguard shortens the candidate toward the plain
                    # step, keeping the memory
                    retries += 1
                    plain = state[:size] - step * state[size:]
                    y[:size] = plain + _SHORTEN * (y[:size] - plain)
                    continue
                # then it gives up: keep the iterate, take the plain step
                memory = []
            else:
                retries = 0
                if res_point <= tol:
                    return y[:size].reshape(d, n).copy()
                stalled = 0 if falls else stalled + 1
                if stalled >= 100 or not math.isfinite(res_point):
                    halvings += 1
                    if halvings > 10:
                        raise DivergenceDetected(
                            f"residual still not falling after {halvings - 1} step halvings"
                        )
                    step *= 0.5
                    stalled = 0
                    state, res = None, math.inf
                    y[:size] = 0.0
                    continue
                point = np.concatenate((y[:size], g))
                if falls and state is not None:
                    # the memory takes a step that lowered the residual, if
                    # the step's difference is finite
                    diff = point - state
                    memory = (memory + [diff])[-_MEMORY:] if np.isfinite(diff).all() else []
                else:
                    memory = []
                state, res = point, res_point
            if memory:
                # type II: gamma fits G(u) by the memory's residual
                # differences, and the candidate mixes the states by it
                past = np.array(memory)
                # gelsd's right-hand side has a row per row or column of the fit
                rows = max(size, len(memory))
                rhs = np.zeros((rows, 1))
                rhs[:size, 0] = state[size:]
                x, _, _, info = _gelsd(past[:, size:].T, rhs, work, iwork, eps * rows)
                if info > 0:
                    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
                mixed = state - x[:len(memory), 0] @ past
                y[:size] = mixed[:size] - step * mixed[size:]
            else:
                y[:size] = state[:size] - step * state[size:]
    raise MaxStepsExceeded(f"residual {res_point:.3e} > {tol:.3e} after {max_steps} steps")


@functools.lru_cache(maxsize=None)
def _acyclic_patterns(d: int, n: int) -> np.ndarray:
    """The sorted patterns whose on-terms form no directed cycle i -> j over
    the d regimes at any node, term t = k*N + l being pair k at node l.
    Read-only, and computed once per shape: the enumeration's cap of 16
    terms leaves eleven shapes, with at most 3^8 = 6561 patterns."""
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    masks = np.arange(1 << i.size)
    on = masks[:, None] >> np.arange(i.size) & 1
    adjacency = np.zeros((masks.size, d, d), dtype=np.int64)
    adjacency[:, i, j] = on
    # a digraph on d vertices is acyclic iff its adjacency matrix is nilpotent
    acyclic = ~np.linalg.matrix_power(adjacency, d).any(axis=(1, 2))
    # a node mask's bits, spread to the terms of node 0
    spread = (on[acyclic] << np.arange(i.size) * n).sum(axis=1)
    patterns = np.zeros(1, dtype=np.int64)
    for node in range(n):
        patterns = np.add.outer(patterns, spread << node).ravel()
    patterns.sort()
    patterns.setflags(write=False)
    return patterns


def active_set_enumerate(prob: PenalizedProblem) -> np.ndarray:
    """Exact solve by trying the on/off patterns of the penalty terms.

    A pattern is accepted when the solution of its linear system reproduces the
    pattern's own signs (a term is on iff its argument is strictly positive).
    Exactly one pattern should survive; zero or several indicate an assembly
    bug or a degenerate tie. Patterns whose on-terms form a directed cycle
    i -> j over the regimes at some node are skipped, for none can be
    accepted: costs are nonnegative and every rounding in K's penalty rows
    is monotone, so an on-term's positive computed argument gives
    u^j > u^i, which a cycle contradicts. The patterns are one stacked
    solve, which factors each pattern matrix once. An exactly singular
    pattern matrix makes that solve raise; only then is the stack screened
    by det != 0, which finds the same zero pivot, and its other patterns
    solved.
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
    patterns = _acyclic_patterns(d, n)
    on = (patterns[:, None] >> t & 1).astype(float)
    aug = top + (on @ terms).reshape(-1, size, size + 1)
    m, rhs = aug[:, :, :size], -aug[:, :, size:]
    try:
        u = np.linalg.solve(m, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # a zero LU pivot gives det == 0, the same test that makes gesv
        # raise; each matrix is factored alone, so a pattern's bits do not
        # depend on the others in the stack
        ok = np.linalg.det(m) != 0.0
        patterns, on = patterns[ok], on[ok]
        u = np.linalg.solve(m[ok], rhs[ok])[:, :, 0]
    # the penalty arguments, as K's penalty rows give them to the march
    active = np.hstack([u, np.ones((len(u), 1))]) @ penalty.T > 0.0
    consistent = np.all(active == (on == 1.0), axis=1)
    if not consistent.any():
        raise NoConsistentPattern("no penalty pattern reproduces its own signs")
    if consistent.sum() > 1:
        raise MultiplePatterns(patterns[consistent].tolist())
    return u[consistent][0].reshape(d, n)
