"""Semismooth Newton driver, direct linear solve, and stopping criterion.

Every Newton problem is one function ``linearize(u) -> (G(u), keep,
coupling)``: the residual at u and the slant of G at the same point,
diag(keep) A + C, in the terms of :func:`qvipen.core.slant_band` (``keep``
a (d, N) row mask of the system matrix A, None for all rows; ``coupling``
the (d, d, N) per-node block C, None for none). :func:`_newton` calls it
once per iterate, so F and the obstacle are evaluated once per iterate, and
builds the band only for a step it takes.

The iteration is plain undamped Newton on a piecewise-differentiable residual:
solve L[u_k] delta = -G(u_k), update, repeat. L is solved by a direct call to
LAPACK's band LU driver ``gbsv``, without iterative refinement: that leaves a
backward error near roundoff. It stops once BOTH the relative increment
||delta|| / max(||u||, 1) drops below tol AND the residual sup-norm is at or
below residual_tol; the increment rule alone can declare victory on a
stagnating iteration, and the residual check costs one evaluation that is
needed anyway. The iteration count is the number of updates performed,
including the final confirming one.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .core import (
    AffineSystem,
    NodeBand,
    PenalizedProblem,
    SolveReport,
    _diagonal_block,
    _obstacles,
    _penalized,
    as_costs,
    field_values,
    slant_band,
    sup_norm,
)

__all__ = [
    "NewtonConfig",
    "SingularSlant",
    "MaxIterExceeded",
    "linear_solve",
    "solve_root",
    "solve_penalized",
    "solve_obstacle",
]


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping parameters; the defaults are used for every shipped experiment."""

    tol: float = 1e-9
    residual_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not (self.tol > 0 and self.residual_tol > 0):
            raise ValueError("tol and residual_tol must be positive")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


class SingularSlant(Exception):
    """Linear solve failed; carries the outer iterate when one exists, and
    the regime and node of the zero pivot when the factorization found one."""

    def __init__(self, message, iterate=None, report=None, regime=None, node=None):
        super().__init__(message)
        self.iterate = iterate
        self.report = report
        self.regime = regime
        self.node = node


class MaxIterExceeded(Exception):
    def __init__(self, message, iterate, report):
        super().__init__(message)
        self.iterate = iterate
        self.report = report


_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)


def linear_solve(op: NodeBand, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of op x = rhs; rhs and x are in regime-major order.

    The band is copied into a zeroed LU array with kl spare rows on top and
    factored by LAPACK ``gbsv`` (band LU with partial pivoting), after
    permuting rhs to node-major order; the band itself is left untouched.
    A zero pivot raises SingularSlant naming its regime and node.
    """
    rhs = np.asarray(rhs, dtype=float)
    kl, ku = op.kl, op.ku
    lu = np.zeros((2 * kl + ku + 1, op.ab.shape[1]), order="F")
    lu[kl:] = op.ab
    _, _, x, info = _gbsv(kl, ku, lu, rhs.reshape(op.d, -1).T.flatten(),
                          overwrite_ab=True, overwrite_b=True)
    if info > 0:  # U[info-1, info-1] is exactly zero; columns are node-major
        node, regime = divmod(info - 1, op.d)
        raise SingularSlant(f"factorization failed: zero pivot at regime {regime}, node {node}",
                            regime=regime, node=node)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    if not np.all(np.isfinite(x)):
        raise SingularSlant("linear solve produced non-finite entries")
    return x.reshape(-1, op.d).T.ravel()


def _newton(system: AffineSystem, linearize, initial, cfg: NewtonConfig | None = None):
    cfg = cfg or NewtonConfig()
    u = field_values(initial, system.d, system.N).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial iterate contains non-finite entries")
    start = time.perf_counter()
    g, keep, coupling = linearize(u)
    increments: list = []
    residuals = [sup_norm(g)]
    converged = False
    for _ in range(cfg.max_iter):
        try:
            slant = slant_band(system, keep, coupling)
            delta = linear_solve(slant, -g.ravel()).reshape(u.shape)
        except SingularSlant as exc:
            exc.iterate = u
            exc.report = SolveReport(increments, residuals, time.perf_counter() - start, False)
            raise
        u = u + delta
        g, keep, coupling = linearize(u)
        residuals.append(sup_norm(g))
        increments.append(sup_norm(delta) / max(sup_norm(u), 1.0))
        if increments[-1] < cfg.tol and residuals[-1] <= cfg.residual_tol:
            converged = True
            break
    report = SolveReport(increments, residuals, time.perf_counter() - start, converged)
    if not converged:
        raise MaxIterExceeded(
            f"no convergence in {cfg.max_iter} iterations "
            f"(residual {residuals[-1]:.3e})",
            u,
            report,
        )
    return u, report


def _min_rows(f: np.ndarray, constraint: np.ndarray, coupling: np.ndarray):
    """Linearization of min(f, constraint): F's rows where f is the smaller
    branch (ties go to F, the constraint counting as inactive at equality),
    else the constraint's per-node ``coupling`` row."""
    keep = f <= constraint
    return np.minimum(f, constraint), keep, np.where(keep[:, None], 0.0, coupling)


def solve_root(system: AffineSystem, initial, cfg: NewtonConfig | None = None):
    """Solve F(u) = 0: one exact step plus a confirming one."""
    return _newton(system, lambda u: (system.evaluate(u), None, None), initial, cfg)


def solve_penalized(prob: PenalizedProblem, initial, cfg: NewtonConfig | None = None):
    """Solve the penalized equation."""

    def linearize(u):
        residual, coupling = _penalized(u, prob)
        return residual, None, coupling

    return _newton(prob.system, linearize, initial, cfg)


def solve_obstacle(system: AffineSystem, psi, initial, cfg: NewtonConfig | None = None):
    """Solve min(F(v), v - psi) = 0 for a fixed (d, N) obstacle psi."""
    psi = field_values(psi, system.d, system.N)
    identity = _diagonal_block(system.d)
    return _newton(
        system,
        lambda u: _min_rows(system.evaluate(u), u - psi, identity),
        initial,
        cfg,
    )


def _solve_qvi(system: AffineSystem, costs, initial, epsilon: float = 0.0,
               cfg: NewtonConfig | None = None):
    """Solve min(F(v), v - M v + epsilon (v - initial)) = 0 from ``initial``.

    At epsilon = 0 this is the QVI itself, and Newton on it is policy
    iteration; for epsilon > 0 it is one time-marching sweep anchored at
    ``initial``. Costs must be positive.
    """
    anchor = field_values(initial, system.d, system.N)
    costs = as_costs(costs, system.d)
    diagonal = (1.0 + epsilon) * _diagonal_block(system.d)
    targets = np.arange(system.d)[:, None]

    def linearize(v):
        obstacle, regimes = _obstacles(v, costs)
        constraint = v - obstacle + epsilon * (v - anchor)
        # (1 + eps) on the diagonal and -1 at the regime switched to
        switch = diagonal - (regimes[:, None] == targets)
        return _min_rows(system.evaluate(v), constraint, switch)

    return _newton(system, linearize, anchor, cfg)
