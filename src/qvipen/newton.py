"""Semismooth Newton driver, direct linear solve, and stopping criterion.

The iteration is plain undamped Newton on a piecewise-differentiable residual:
solve L[u_k] delta = -G(u_k), update, repeat. Every driver builds L with
:func:`qvipen.core.slant_band` as a node-major band and solves it by LAPACK
band LU, without iterative refinement: that leaves a backward error near
roundoff. It stops once BOTH the relative increment ||delta|| / max(||u||,
scale) drops below tol AND the residual sup-norm is at or below
residual_tol; the increment rule alone can declare victory on a stagnating
iteration, and the residual check costs one evaluation that is needed
anyway. The iteration count is the number of updates performed, including
the final confirming one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .core import (
    MonotoneSystem,
    NodeBand,
    PenalizedProblem,
    RegimeField,
    SolveReport,
    _penalized_band,
    field_values,
    penalized_residual,
    slant_band,
    sup_norm,
)

__all__ = [
    "NewtonConfig",
    "ObstacleProblem",
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
    scale: float = 1.0
    residual_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not (self.tol > 0 and self.scale > 0 and self.residual_tol > 0):
            raise ValueError("tol, scale, and residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class ObstacleProblem:
    """min(F(v), v - psi) = 0 with a fixed per-regime obstacle psi."""

    system: MonotoneSystem
    psi: np.ndarray

    def __post_init__(self) -> None:
        psi = field_values(self.psi, self.system.d, self.system.N)
        object.__setattr__(self, "psi", psi)


class SingularSlant(Exception):
    """Linear solve failed; carries the outer iterate when one exists."""

    def __init__(self, message, iterate=None, report=None):
        super().__init__(message)
        self.iterate = iterate
        self.report = report


class MaxIterExceeded(Exception):
    def __init__(self, message, iterate, report):
        super().__init__(message)
        self.iterate = iterate
        self.report = report


def linear_solve(op: NodeBand, rhs: np.ndarray) -> np.ndarray:
    """Direct solve of op x = rhs; rhs and x are in regime-major order.

    The band is factored by LAPACK band LU with partial pivoting, after
    permuting rhs to node-major order; the band itself is left untouched.
    Rank deficiency surfaces as SingularSlant.
    """
    rhs = np.asarray(rhs, dtype=float)
    try:
        x = solve_banded((op.kl, op.ku), op.ab, rhs.reshape(op.d, -1).T.flatten(),
                         overwrite_b=True, check_finite=False)
    except LinAlgError as exc:  # raised on exact singularity
        raise SingularSlant(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSlant("linear solve produced non-finite entries")
    return x.reshape(-1, op.d).T.ravel()


def _newton(residual_at, slant_at, initial, cfg: NewtonConfig):
    u = field_values(initial).copy()
    start = time.perf_counter()
    g = residual_at(u)
    increments: list = []
    residuals = [sup_norm(g)]
    iterations = 0
    converged = False
    for _ in range(cfg.max_iter):
        try:
            delta = linear_solve(slant_at(u), -g.ravel()).reshape(u.shape)
        except SingularSlant as exc:
            exc.iterate = RegimeField(u)
            exc.report = SolveReport(iterations, residuals[-1], increments,
                                     residuals, time.perf_counter() - start, False)
            raise
        u = u + delta
        iterations += 1
        g = residual_at(u)
        residuals.append(sup_norm(g))
        increments.append(sup_norm(delta) / max(sup_norm(u), cfg.scale))
        if increments[-1] < cfg.tol and residuals[-1] <= cfg.residual_tol:
            converged = True
            break
    report = SolveReport(iterations, residuals[-1], increments, residuals,
                         time.perf_counter() - start, converged)
    result = RegimeField(u)
    if not converged:
        raise MaxIterExceeded(
            f"no convergence in {cfg.max_iter} iterations "
            f"(residual {report.final_residual:.3e})",
            result,
            report,
        )
    return result, report


def solve_root(system: MonotoneSystem, initial, cfg: NewtonConfig | None = None):
    """Solve F(u) = 0; one exact step plus a confirming one when F is affine."""
    cfg = cfg or NewtonConfig()
    return _newton(system.evaluate, lambda u: slant_band(system, u), initial, cfg)


def solve_penalized(prob: PenalizedProblem, initial, cfg: NewtonConfig | None = None):
    """Solve the penalized equation; degree-1 penalty only."""
    if prob.penalty.sigma != 1.0 and prob.rho != 0.0:
        raise ValueError(
            f"Newton path supports penalty degree 1 only, got sigma={prob.penalty.sigma}; "
            "other degrees go through the marching oracle"
        )
    cfg = cfg or NewtonConfig()
    return _newton(
        lambda u: penalized_residual(u, prob),
        lambda u: _penalized_band(u, prob),
        initial,
        cfg,
    )


def _obstacle_band(prob: ObstacleProblem, u: np.ndarray) -> NodeBand:
    # row per component: the F-row where F is the smaller branch (ties go to
    # F, treating the constraint as inactive at equality), else the identity
    f_rows = prob.system.evaluate(u) <= u - prob.psi
    return slant_band(prob.system, u, f_rows, np.eye(prob.system.d)[:, :, None] * ~f_rows[:, None])


def solve_obstacle(prob: ObstacleProblem, initial, cfg: NewtonConfig | None = None):
    """Solve min(F(v), v - psi) = 0 for fixed psi."""
    cfg = cfg or NewtonConfig()
    return _newton(
        lambda u: np.minimum(prob.system.evaluate(u), u - prob.psi),
        lambda u: _obstacle_band(prob, u),
        initial,
        cfg,
    )
