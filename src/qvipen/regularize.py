"""Regularization sweeps, error-bound constants, and the zero-cost limit.

Two outer iterations approximate the switching solution through sequences of
simpler solves: the iterated-stopping sweep Q freezes the obstacle at the
previous iterate, and the time-marching sweep T keeps the obstacle live but
adds a pseudo-time pull toward the previous iterate. Their penalized
counterparts Q_rho and T_rho instead freeze the first slot of the penalty
argument in the Newton linearization :func:`qvipen.core._penalized`. All four
converge monotonically from below when started at the root of F, which is
what makes the error formulas in this module one-sided.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AffineSystem,
    PenalizedProblem,
    SwitchingCostMatrix,
    _number,
    _obstacles,
    _penalized,
    a_priori_bound,
    as_costs,
    field_values,
    sup_norm,
)
from .newton import (
    NewtonConfig,
    _newton,
    _solve_qvi,
    solve_obstacle,
    solve_penalized,
    solve_root,
)

__all__ = [
    "ErrorConstants",
    "NonMonotoneSweep",
    "GapBoundViolation",
    "HjbResult",
    "estimate_C",
    "strict_supersolution",
    "apply_Q",
    "apply_T",
    "apply_Q_rho",
    "apply_T_rho",
    "iterate_to_fixed_point",
    "phi_minimize",
    "phi_upper_bound",
    "penalty_error_bound",
    "hjb_limit_solve",
    "zero_cost_gap_bound",
]


class NonMonotoneSweep(UserWarning):
    """A sweep decreased some component; from the root of F that is a bug."""


class GapBoundViolation(Exception):
    """A proven gap inequality failed numerically; carries the worst location."""

    def __init__(self, message, regime, node):
        super().__init__(message)
        self.regime = regime
        self.node = node


def estimate_C(system: AffineSystem) -> float:
    """Supremum of ||F(u)|| over the a-priori ball ||u|| <= ||F(0)||/gamma.

    Exact, row by row: over that ball |F_k(u)| = |A[k] vec(u) - b[k]| peaks
    at a corner, at radius * sum_j |A[k, j]| + |b[k]|.
    """
    radius = a_priori_bound(system)
    row_mass = np.asarray(np.abs(system.matrix).sum(axis=1)).ravel()
    return float(np.max(row_mass * radius + np.abs(system.rhs)))


@dataclass(frozen=True)
class ErrorConstants:
    """The constants feeding every error formula: kappa, L_kappa, mu, and C.

    mu = min(1, gamma*kappa / (2||F(0)|| + kappa)) is the contraction factor
    of the iterated-stopping sweep Q started at the root of F;
    L_kappa = (2||F(0)|| + kappa) / gamma and C is :func:`estimate_C`.
    kappa is c/2, c the smallest cost: any value in (0, c) works, and
    :meth:`for_system` takes the midpoint.
    """

    kappa: float
    C: float
    norm_F0: float
    gamma: float
    min_cost: float

    @property
    def L_kappa(self) -> float:
        return (2.0 * self.norm_F0 + self.kappa) / self.gamma

    @property
    def mu(self) -> float:
        return min(1.0, self.gamma * self.kappa / (2.0 * self.norm_F0 + self.kappa))

    @classmethod
    def for_system(cls, system: AffineSystem, costs) -> "ErrorConstants":
        costs = as_costs(costs, system.d)
        if not costs.is_positive:
            raise ValueError("error constants need strictly positive costs: "
                             "zero costs leave no kappa in (0, c)")
        return cls(
            kappa=costs.min_cost / 2.0,
            C=estimate_C(system),
            norm_F0=system.norm_F0,
            gamma=system.gamma,
            min_cost=costs.min_cost,
        )


# the penalty weight of the start of the shifted QVI solve in strict_supersolution
_SUPERSOLUTION_START_RHO = 1e3


def strict_supersolution(system: AffineSystem, costs, kappa: float) -> np.ndarray:
    """A field w with min(F_i(w), w^i - M_i w) = kappa in every component.

    Solved exactly as the QVI of the original problem with F shifted down by
    kappa (b raised by kappa) and every cost reduced by kappa: that QVI's
    residual is min(F(w), w - M w) - kappa, so the Newton residual test
    bounds the defect directly. Its Newton solve starts from the shifted
    penalized solution at rho = 1e3, itself solved from the shifted root:
    from the root alone, policy iteration on the QVI moves its free boundary
    about one node per iteration and needs hundreds of iterations at
    N = 1000.
    """
    costs = as_costs(costs, system.d)
    kappa = _number("kappa", kappa, 0, costs.min_cost)
    shifted = AffineSystem(system.matrix, system.rhs.reshape(system.d, system.N) + kappa,
                           system.gamma)
    shifted_costs = SwitchingCostMatrix(costs.costs - kappa)
    root, _ = solve_root(shifted, np.zeros((system.d, system.N)))
    start, _ = solve_penalized(
        PenalizedProblem(shifted, shifted_costs, _SUPERSOLUTION_START_RHO), root)
    w, _ = _solve_qvi(shifted, shifted_costs, start)
    return w


def apply_Q(u, system: AffineSystem, costs) -> np.ndarray:
    """One iterated-stopping sweep: solve with the obstacle frozen at M_i u."""
    v = field_values(u, system.d, system.N)
    costs = as_costs(costs, system.d)
    psi = _obstacles(v, costs)[0]
    out, _ = solve_obstacle(system, psi, v)
    return out


def apply_T(u, system: AffineSystem, costs, epsilon: float) -> np.ndarray:
    """One time-marching sweep: the obstacle stays live, the epsilon term
    anchors the solve to the previous iterate."""
    return _solve_qvi(system, costs, u, _number("epsilon", epsilon, 0))[0]


def apply_Q_rho(u, prob: PenalizedProblem) -> np.ndarray:
    """One penalized sweep: penalty arguments read their first slot from u."""
    frozen = field_values(u, prob.system.d, prob.system.N)
    return _newton(prob.system, _penalized(prob, frozen), frozen)[0]


def apply_T_rho(u, prob: PenalizedProblem, epsilon: float) -> np.ndarray:
    """The time-marching variant of the penalized sweep: the penalty argument
    picks up an extra -epsilon*(v - u) pull toward the previous iterate."""
    epsilon = _number("epsilon", epsilon, 0)
    frozen = field_values(u, prob.system.d, prob.system.N)
    return _newton(prob.system, _penalized(prob, frozen, epsilon), frozen)[0]


def iterate_to_fixed_point(step, start, max_sweeps: int = 200, tol: float = 1e-10):
    """Apply a sweep operator until the sup-norm increment drops below tol.

    Returns (final field, sweep count, increment history). A componentwise
    decrease beyond 1e-8 raises the NonMonotoneSweep warning: legitimate when
    the start is arbitrary, a solver bug when the start is the root of F.
    ``max_sweeps`` must be a positive integer and ``tol`` a positive finite
    number, neither a bool; anything else is a ValueError naming it, and so
    is a ``start`` with a non-finite entry.
    """
    max_sweeps = _number("max_sweeps", max_sweeps, 0, integer=True)
    tol = _number("tol", tol, 0)
    u = field_values(start).copy()
    if not np.isfinite(u).all():
        raise ValueError("start contains non-finite entries")
    increments: list = []
    for sweep in range(1, max_sweeps + 1):
        nxt = field_values(step(u), *u.shape)
        if not np.all(np.isfinite(nxt)):
            raise ValueError(f"sweep {sweep} returned non-finite entries")
        diff = nxt - u
        drop = float(diff.min())
        if drop < -1e-8:
            warnings.warn(
                f"sweep {sweep} decreased a component by {drop:.3e}",
                NonMonotoneSweep,
                stacklevel=2,
            )
        increments.append(sup_norm(diff))
        u = nxt
        if increments[-1] < tol:
            break
    return u, len(increments), increments


def _phi_arguments(nu, a, b):
    """``(nu, a, b)`` as floats, nu and b positive and a in (0, 1); anything
    else is a ValueError naming it."""
    return _number("nu", nu, 0), _number("a", a, 0, 1), _number("b", b, 0)


def phi_minimize(nu: float, a: float, b: float):
    """Exact integer minimizer of phi(n) = nu*a**n + b*n over n >= 0.

    Returns (n_star, minimum). The continuous minimizer sits where
    a**x = -b/(nu*ln a); scanning up to its ceiling plus one is exhaustive
    because phi is convex. The result is checked against the closed-form
    upper bound before returning.
    """
    nu, a, b = _phi_arguments(nu, a, b)
    log_a = math.log(a)
    ratio = -b / (nu * log_a)
    if ratio >= 1.0:
        top = 1
    else:
        top = math.ceil(math.log(ratio) / log_a) + 1
    values = [nu * a**n + b * n for n in range(top + 1)]
    n_star = int(np.argmin(values))
    m = values[n_star]
    assert m <= phi_upper_bound(nu, a, b) * (1.0 + 1e-12) + 1e-300
    return n_star, m


def phi_upper_bound(nu: float, a: float, b: float) -> float:
    """Closed-form bound on min phi: nu on the flat branch, else phi at one
    past the continuous minimizer (the log argument is -b/(nu*ln a); the sign
    inside the log matters because ln a < 0). The arguments are checked as
    :func:`phi_minimize` checks them."""
    nu, a, b = _phi_arguments(nu, a, b)
    log_a = math.log(a)
    ratio = -b / (nu * log_a)
    if ratio >= 1.0:
        return nu
    return -a * b / log_a + b * (math.log(ratio) / log_a + 1.0)


def penalty_error_bound(constants: ErrorConstants, rho: float) -> float:
    """Rigorous upper bound on ||u - u^rho||, built from the per-sweep drift
    C/rho; zero when costs are so large that the obstacle never binds."""
    rho = _number("rho", rho, 0)
    if constants.min_cost > 2.0 * constants.norm_F0 / constants.gamma:
        return 0.0
    per_sweep = constants.C / rho
    if constants.mu >= 1.0:
        return min(constants.L_kappa, per_sweep)
    _, m = phi_minimize(constants.L_kappa / constants.mu, 1.0 - constants.mu, per_sweep)
    return m


@dataclass
class HjbResult:
    """Zero-cost solve along a penalty schedule.

    values is the regime-wise maximum of the final solve (the solutions
    approach the common limit from below, so the max is the tightest
    estimate); stages holds (rho, solution, report) triples; regime_gaps the
    corresponding max pairwise regime differences; gap_bound the theoretical
    cap C/rho_final on the final gap.
    """

    values: np.ndarray
    stages: list
    regime_gaps: list
    gap_bound: float


def hjb_limit_solve(system: AffineSystem, rho_schedule,
                    cfg: NewtonConfig | None = None) -> HjbResult:
    """Solve the zero-switching-cost problem by driving the penalty weight up.

    All regimes collapse onto one value vector in the limit; each schedule
    entry is solved from the root of F so the reports match standalone runs.
    Each entry must be a positive finite number, never a bool or a string;
    a ValueError names the first that is not.
    """
    schedule = [_number(f"rho_schedule[{k}]", r, 0) for k, r in enumerate(rho_schedule)]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("rho schedule must be nonempty and strictly increasing")
    costs = SwitchingCostMatrix.uniform(system.d, 0.0)
    root, _ = solve_root(system, np.zeros((system.d, system.N)), cfg)
    stages = []
    gaps = []
    for rho in schedule:
        u, report = solve_penalized(PenalizedProblem(system, costs, rho), root, cfg)
        stages.append((rho, u, report))
        gaps.append(_regime_gap(u))
    final = stages[-1][1]
    bound = estimate_C(system) / schedule[-1]
    return HjbResult(final.max(axis=0), stages, gaps, bound)


def _regime_gap(v: np.ndarray) -> float:
    """Largest spread between regimes at one node: max_l (max_i - min_i) v."""
    return float(np.max(v.max(axis=0) - v.min(axis=0)))


def zero_cost_gap_bound(u_c_rho, u_rho, c: float, rho: float, gamma: float) -> float:
    """Check 0 <= u_rho - u_c_rho <= (d-1)*c*rho/gamma and return the max gap.

    u_rho solves the zero-cost penalized problem, u_c_rho the positive-cost
    one at the same weight, both (d, N) fields of one shape; the inequality
    is componentwise with a 1e-8 allowance, and a violation reports its
    worst location. A negative or non-finite c or rho, a gamma that is not
    positive and finite, or a field with a non-finite entry is a ValueError
    naming it.
    """
    # a NaN bound or gap would pass every check
    c, rho = _number("c", c, 0, closed=True), _number("rho", rho, 0, closed=True)
    gamma = _number("gamma", gamma, 0)
    a = field_values(u_c_rho)
    b = field_values(u_rho, *a.shape)
    for name, field in (("u_c_rho", a), ("u_rho", b)):
        if not np.isfinite(field).all():
            raise ValueError(f"{name} contains non-finite entries")
    gap = b - a
    bound = (a.shape[0] - 1) * c * rho / gamma
    low = float(gap.min())
    if low < -1e-8:
        i, l = divmod(int(np.argmin(gap)), gap.shape[1])
        raise GapBoundViolation(
            f"zero-cost solution dips {-low:.3e} below the costly one at "
            f"regime {i}, node {l}", i, l,
        )
    high = float(gap.max())
    if high > bound + 1e-8:
        i, l = divmod(int(np.argmax(gap)), gap.shape[1])
        raise GapBoundViolation(
            f"gap {high:.3e} exceeds bound {bound:.3e} at regime {i}, node {l}",
            i, l,
        )
    return high
