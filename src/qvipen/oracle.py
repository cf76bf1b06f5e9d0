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

The march is accelerated on its own fixed-point map u -> u - delta * G(u),
with the same step delta: type-II Anderson acceleration with memory m = 3
(D. G. Anderson, J. ACM 1965; Walker & Ni, SINUM 2011). From the iterate
u_k, gamma fits G(u_k) by least squares over the residual differences dG of
the last m steps, and the candidate is u_k - dU gamma - delta * (G(u_k) -
dG gamma), dU being the matching iterate differences. The safeguard
(Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020): the candidate is kept only
if its residual sup-norm is strictly below the current one; otherwise the
march takes the plain step u_k - delta * G(u_k) and clears the memory. A
plain step whose residual does not fall clears it too, so the march only
extrapolates from a falling history, and a step too long to contract still
shows as growth to the halving rule. The memory holds only finite
differences, so no non-finite value reaches the fit, and the fit's
minimum-norm solution takes a rank-deficient history. Each evaluation,
a rejected candidate's included, counts against the step budget. The
accelerator reads only the march's own iterates and residuals, so the
march stays an oracle.

On the 72 verify-style instances of the benchmark's oracle pool at tol 1e-9
the plain march took 557,835 residual evaluations and this one takes
13,992: 6 for the median instance and 2907 for the worst (c = 0.1,
rho = 1e3, where penalty terms sit near their kink and about half the
candidates are rejected). The march over the pool went from about 1.4 to
about 0.19 s (numpy 2.4.6, one BLAS thread, 2-core shared host). On the
two-regime N = 20 grid at rho = 1e3, tol 2e-9, about a million plain steps
became 26,749 evaluations.
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
# past steps whose differences an accelerated march step fits (Anderson's m)
_MEMORY = 3


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
    """March u <- u - step * G(u) from zero, with safeguarded Anderson
    steps, until the residual sup-norm <= tol.

    The default step 0.9 / (max slant diagonal + rho*(d-1)) makes the plain
    update a contraction on the assembled systems, the penalty max(t, 0) being
    Lipschitz with constant 1. Each step tries the Anderson candidate fitted
    to the last ``_MEMORY`` steps and keeps it only if its residual sup-norm
    is strictly below the current one; otherwise it takes the plain step and
    clears the memory, as does a plain step whose residual does not fall. A
    non-finite residual, or one that does not fall for 100 steps in a row,
    halves the step and restarts the march from zero; ten halvings without
    recovery is a failure. ``max_steps`` counts residual evaluations,
    rejected candidates included.
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
    # y = [vec(u), 1] is K's input at the point evaluated next; an iterate
    # is held as its state [vec(u), G(u)], and row k of ``past`` is the
    # k-th oldest of the last ``held`` steps' state differences
    y = np.zeros(size + 1)
    y[-1] = 1.0
    z = np.empty(lift.shape[0])
    now, point = np.zeros(2 * size), np.zeros(2 * size)
    past = np.empty((_MEMORY, 2 * size))
    held = 0
    accelerated = False
    halvings = 0
    stalled = 0
    evaluations = 0
    # an iterate's residual is finite, a non-finite one restarting the
    # march, so res is inf exactly when the march has no iterate yet
    res = math.inf
    # overflow on a divergent trajectory, or on a wild candidate, is an
    # anticipated signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if evaluations == max_steps:
                raise MaxStepsExceeded(
                    f"residual {res_point:.3e} > {tol:.3e} after {max_steps} steps"
                )
            evaluations += 1
            lift.dot(y, out=z)
            np.maximum(z, floor, out=z)
            reduce.dot(z, out=point[size:])
            res_point = float(np.abs(point[size:]).max())
            falls = res_point < res
            if accelerated and not falls:
                # the safeguard: keep the iterate, take the plain step from it
                held = 0
            else:
                if res_point <= tol:
                    return y[:size].reshape(d, n).copy()
                if not math.isfinite(res_point):
                    stalled = 100
                elif falls:
                    stalled = 0
                else:
                    stalled += 1
                if stalled >= 100:
                    halvings += 1
                    if halvings > 10:
                        raise DivergenceDetected(
                            f"residual still not falling after {halvings - 1} step halvings"
                        )
                    step *= 0.5
                    stalled = 0
                    # no iterate, so the next point starts an empty memory
                    res = math.inf
                    y[:size] = 0.0
                    continue
                point[:size] = y[:size]
                if falls and res < math.inf:
                    # the memory takes a step that lowered the residual,
                    # if the step's difference is finite
                    if held == _MEMORY:
                        past[:-1] = past[1:]
                        held -= 1
                    np.subtract(point, now, out=past[held])
                    held = held + 1 if np.isfinite(past[held]).all() else 0
                else:
                    held = 0
                now, point = point, now
                res = res_point
            accelerated = held > 0
            if accelerated:
                # type II: gamma fits G(u) by the memory's residual
                # differences, and the candidate mixes the states by it
                gamma = np.linalg.lstsq(past[:held, size:].T, now[size:], rcond=None)[0]
                mixed = now - gamma @ past[:held]
                y[:size] = mixed[:size] - step * mixed[size:]
            else:
                y[:size] = now[:size] - step * now[size:]


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
