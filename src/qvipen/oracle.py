"""Slow, simple ground-truth solvers used to cross-check the Newton path.

Two routes: explicit pseudo-time marching (works for any penalty degree), and
exhaustive active-set enumeration (exact, affine degree-1 instances at desk
scale only). Both build their penalty terms rho * pi(u^j - c[i, j] - u^i)
straight from that definition, as small dense operators over the d(d-1)
ordered regime pairs, and share no code with the residual or slant in `core`
that they are checking; from `core` they take only the problem type.

The march needs about (max diag + rho(d-1)) / gamma * ln(res0 / tol) steps:
the step is capped by the largest slant row, and each step shrinks the error
by about gamma times the step. That count is a property of the instance, so
only the cost of one step can be cut, and one step is one evaluation of F
plus two small matrix products. A per-row (Jacobi) step does not lower the
count either: at rho = 1e3 the term rho(d-1) dominates every row's diagonal,
so such a step saves at most 0.2% of the steps on verify-style random
instances and 1.5% on the N = 20 two-regime grid.
"""
from __future__ import annotations

import math

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
    return diff, prob.costs.costs[i, j][:, None], scatter


def _residual(prob: PenalizedProblem, u: np.ndarray, ops=None) -> np.ndarray:
    """F(u) minus the penalty; ``ops`` are the operators of _penalty_operators."""
    f = prob.system.evaluate(u)
    if prob.rho == 0.0:
        return f
    diff, cost, scatter = _penalty_operators(prob) if ops is None else ops
    terms = np.maximum(diff @ u - cost, 0.0)
    if prob.penalty.sigma != 1.0:
        terms **= 1.0 / prob.penalty.sigma
    return f - scatter @ terms


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
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    d, n = prob.system.d, prob.system.N
    ops = _penalty_operators(prob)
    u = np.zeros((d, n))
    if step is None:
        diag = float(np.max(np.abs(prob.system.slant_at(u).diagonal())))
        step = 0.9 / (diag + prob.rho * (d - 1))
    delta = float(step)
    halvings = 0
    growth = 0
    prev = math.inf
    # overflow on a divergent trajectory is an anticipated signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_steps):
            g = _residual(prob, u, ops)
            res = float(np.abs(g).max())
            if res <= tol:
                return u
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
                u = np.zeros((d, n))
                continue
            prev = res
            u -= delta * g
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
    if not system.is_affine:
        raise ValueError("enumeration requires an affine system")
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
    zero = np.zeros((d, n))
    a = np.asarray(system.slant_at(zero).todense())
    b = -system.evaluate(zero).ravel()
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
