"""Slow, simple ground-truth solvers used to cross-check the Newton path.

Two routes: explicit pseudo-time marching (any penalty degree), and
exhaustive active-set enumeration (degree 1, desk scale only). Both read the
dense A and b of the system F(u) = A vec(u) - b from one helper, and both
build their penalty terms rho * pi(u^j - c[i, j] - u^i) straight from that
definition, as small dense operators over the d(d-1) ordered regime pairs.
They share no code with the residual or slant in `core` that they are
checking; from `core` they take only the problem type.

The march needs about (max diag + rho(d-1)) / gamma * ln(res0 / tol) steps:
the step is capped by the largest slant row, and each step shrinks the error
by about gamma times the step. That count is a property of the instance, so
only the cost of one step can be cut. One step is two small dense products
and a clamp: K = [A | -b; D x I_N | -c], built once per solve, maps
y = [vec(u), 1] to F(u) above the penalty arguments; the penalty rows are
clamped at 0 (and raised to 1/sigma), and [I | -S x I_N] folds them into
G(u). A per-row (Jacobi) step does not lower the count: at rho = 1e3 the
term rho(d-1) dominates every row's diagonal, so such a step saves at most
0.2% of the steps on verify-style random instances and 1.5% on the N = 20
two-regime grid.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .core import PenalizedProblem

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


def _pairs(d: int):
    """Both regimes of each ordered pair (i, j != i), in row-major order."""
    return np.nonzero(~np.eye(d, dtype=bool))


def _affine_operators(system):
    """(A, b): the dense matrix and the right-hand side of F(u) = A vec(u) - b."""
    return system.matrix.toarray(), system.rhs


def _penalty_operators(prob: PenalizedProblem):
    """(D, c, S): the penalty is S @ pi(D @ u - c), one row of D and c per pair.

    Row k of the (P, d) difference matrix D, for pair (i, j), has +1 at j and
    -1 at i; c[k] is the cost c[i, j]; the (d, P) scatter S adds rho times
    term k to regime i.
    """
    i, j = _pairs(prob.system.d)
    k = np.arange(i.size)
    diff = np.zeros((k.size, prob.system.d))
    diff[k, j] = 1.0
    diff[k, i] = -1.0
    scatter = np.zeros((prob.system.d, k.size))
    scatter[i, k] = prob.rho
    return diff, prob.costs.costs[i, j], scatter


def _march_operators(prob: PenalizedProblem):
    """(K, floor, R): G(u) = R @ pi_floor(K @ [vec(u), 1]).

    K stacks [A | -b] above [D x I_N | -c], so K @ y holds F(u) and then the
    penalty argument of each (pair, node). Clamping at ``floor`` (-inf on the
    F rows, 0 on the penalty rows) and raising the penalty rows to 1/sigma
    gives pi, and R = [I | -S x I_N] subtracts rho times each term from its
    regime's F row.
    """
    a, b = _affine_operators(prob.system)
    diff, cost, scatter = _penalty_operators(prob)
    eye = np.eye(prob.system.N)
    lift = np.block([
        [a, -b[:, None]],
        [np.kron(diff, eye), -np.repeat(cost, eye.shape[0])[:, None]],
    ])
    floor = np.zeros(lift.shape[0])
    floor[: a.shape[0]] = -np.inf
    reduce = np.hstack([np.eye(a.shape[0]), -np.kron(scatter, eye)])
    return lift, floor, reduce


def _march_residual(ops, y: np.ndarray, power: float) -> np.ndarray:
    """G(u) at y = [vec(u), 1], with pi(t) = max(t, 0) ** power."""
    lift, floor, reduce = ops
    z = lift @ y
    np.maximum(z, floor, out=z)
    if power != 1.0:
        z[reduce.shape[0]:] **= power
    return reduce @ z


def _residual(prob: PenalizedProblem, u: np.ndarray) -> np.ndarray:
    """F(u) minus the penalty, computed as one step of the march computes it."""
    y = np.append(np.asarray(u, dtype=float).ravel(), 1.0)
    g = _march_residual(_march_operators(prob), y, 1.0 / prob.penalty.sigma)
    return g.reshape(prob.system.d, prob.system.N)


def pseudo_time_solve(
    prob: PenalizedProblem,
    step: float | None = None,
    tol: float = 1e-8,
    max_steps: int = 10_000_000,
) -> np.ndarray:
    """March u <- u - step * G(u) from zero until the residual sup-norm <= tol.

    The default step 0.9 / (max slant diagonal + rho*(d-1)) makes the update a
    contraction on the assembled systems. A non-finite residual, or one that
    grows for 100 steps in a row, halves the step and restarts the march from
    zero; ten halvings without recovery is a failure.
    """
    if not isinstance(max_steps, numbers.Integral) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    d, n = prob.system.d, prob.system.N
    ops = _march_operators(prob)
    power = 1.0 / prob.penalty.sigma
    # y = [vec(u), 1]; u is a view, updated in place
    y = np.zeros(d * n + 1)
    y[-1] = 1.0
    u = y[:-1]
    if step is None:
        # the first d*n entries of K's diagonal are A's
        diag = float(np.abs(ops[0].diagonal()[: d * n]).max())
        step = 0.9 / (diag + prob.rho * (d - 1))
    delta = float(step)
    halvings = 0
    growth = 0
    prev = math.inf
    # overflow on a divergent trajectory is an anticipated signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_steps):
            g = _march_residual(ops, y, power)
            res = float(np.abs(g).max())
            if res <= tol:
                return u.reshape(d, n)
            if not math.isfinite(res):
                growth = 100
            elif res > prev:
                growth += 1
            else:
                growth = 0
            if growth >= 100:
                halvings += 1
                if halvings > 10:
                    raise DivergenceDetected(
                        f"residual still growing after {halvings - 1} step halvings"
                    )
                delta *= 0.5
                growth = 0
                prev = math.inf
                u[:] = 0.0
                continue
            prev = res
            g *= delta
            u -= g
    raise MaxStepsExceeded(f"residual {res:.3e} > {tol:.3e} after {max_steps} steps")


def active_set_enumerate(prob: PenalizedProblem) -> np.ndarray:
    """Exact solve by trying every on/off pattern of the penalty terms.

    A pattern is accepted when the solution of its linear system reproduces the
    pattern's own signs (a term is on iff its argument is strictly positive).
    Exactly one pattern should survive; zero or several indicate an assembly
    bug or a degenerate tie. Patterns are solved in stacked batches; an
    exactly singular pattern matrix is skipped.
    """
    system = prob.system
    if prob.penalty.sigma != 1.0:
        raise ValueError(
            f"enumeration supports penalty degree 1 only, got sigma={prob.penalty.sigma}"
        )
    d, n = system.d, system.N
    i, j = _pairs(d)
    bits = i.size * n
    if bits > 16:
        raise ValueError(f"instance has {bits} penalty terms, enumeration caps at 16")
    # term t = k*n + l is pair k at node l: row (i, l), column (j, l), cost c[i, j]
    node = np.tile(np.arange(n), i.size)
    row = np.repeat(i, n) * n + node
    col = np.repeat(j, n) * n + node
    cost = np.repeat(prob.costs.costs[i, j], n)
    t = np.arange(bits)
    size = d * n
    # an active term t adds rho at (row, row), -rho at (row, col), -rho*c to rhs row
    lift = np.zeros((bits, size, size))
    lift[t, row, row] = prob.rho
    lift[t, row, col] = -prob.rho
    lift = lift.reshape(bits, size * size)
    shift = np.zeros((bits, size))
    shift[t, row] = -prob.rho * cost
    a, b = _affine_operators(system)
    hits = []
    for start in range(0, 1 << bits, _CHUNK):
        patterns = np.arange(start, min(start + _CHUNK, 1 << bits))
        on = (patterns[:, None] >> t & 1).astype(float)
        m = a + (on @ lift).reshape(-1, size, size)
        rhs = b + on @ shift
        # a zero LU pivot gives det == 0, the same test that makes gesv raise
        ok = np.linalg.det(m) != 0.0
        u = np.linalg.solve(m[ok], rhs[ok, :, None])[:, :, 0]
        active = u[:, col] - cost - u[:, row] > 0.0
        consistent = np.all(active == (on[ok] == 1.0), axis=1)
        hits.extend(zip(patterns[ok][consistent].tolist(), u[consistent]))
    if not hits:
        raise NoConsistentPattern("no penalty pattern reproduces its own signs")
    if len(hits) > 1:
        raise MultiplePatterns([p for p, _ in hits])
    return hits[0][1].reshape(d, n)
