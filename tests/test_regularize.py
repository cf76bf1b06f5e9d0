"""Regularization sweeps, error constants, and the zero-cost limit."""
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from qvipen import (
    AffineSystem,
    ErrorConstants,
    GapBoundViolation,
    NonMonotoneSweep,
    PenalizedProblem,
    SwitchingCostMatrix,
    apply_Q,
    apply_Q_rho,
    apply_T,
    apply_T_rho,
    estimate_C,
    hjb_limit_solve,
    iterate_to_fixed_point,
    penalty_error_bound,
    phi_minimize,
    phi_upper_bound,
    qvi_residual,
    solve_penalized,
    solve_root,
    strict_supersolution,
    sup_norm,
    zero_cost_gap_bound,
)
from qvipen.core import _obstacles
from qvipen.pde import PdeParams, RewardFunction, assemble
from qvipen.testing import random_affine_system

COST = 0.5


@pytest.fixture(scope="module")
def two_regime():
    system = assemble(PdeParams(d=2, reward=RewardFunction.two_regime()))
    root, _ = solve_root(system, np.zeros((2, 100)))
    return system, root


@pytest.fixture(scope="module")
def q_fixed(two_regime):
    system, root = two_regime
    u, sweeps, increments = iterate_to_fixed_point(
        lambda v: apply_Q(v, system, COST), root, tol=1e-10
    )
    return u, sweeps, increments


@pytest.fixture(scope="module")
def penalty_reference(two_regime):
    system, root = two_regime
    costs = SwitchingCostMatrix.uniform(2, COST)
    u1, _ = solve_penalized(PenalizedProblem(system, costs, 1e6), root)
    u2, _ = solve_penalized(PenalizedProblem(system, costs, 2e6), root)
    margin = 2.0 * sup_norm(u2 - u1)
    return u1, margin


@pytest.fixture(scope="module")
def small_instance():
    rng = np.random.default_rng(7)
    system = random_affine_system(rng, d=2, n=2, gamma=1.0)
    root, _ = solve_root(system, np.zeros((2, 2)))
    u_ref, _, _ = iterate_to_fixed_point(
        lambda v: apply_Q(v, system, COST), root, tol=1e-13
    )
    return system, root, u_ref


# ---------------------------------------------------------------- supersolutions


def test_identity_supersolution_is_kappa_over_gamma():
    # F(u) = u, cost 1, kappa 0.5: the shifted problem's solution is the
    # constant kappa/gamma, reproduced exactly by the penalty path
    system = AffineSystem(sp.identity(6, format="csr"), np.zeros((2, 3)), gamma=1.0)
    w = strict_supersolution(system, 1.0, 0.5)
    assert np.abs(w - 0.5).max() <= 1e-9


def test_supersolution_residual_pinned_at_kappa(two_regime, q_fixed):
    system, _ = two_regime
    kappa = 0.25
    w = strict_supersolution(system, COST, kappa)
    defect = sup_norm(qvi_residual(w, system, COST) - kappa)
    assert defect <= 1e-10
    assert sup_norm(w) <= (system.norm_F0 + kappa) / system.gamma
    # a strict supersolution dominates the solution
    assert (w - q_fixed[0]).min() >= -1e-8


@pytest.mark.parametrize("n, cost", [(400, 1 / 8), (1000, 1 / 8), (1000, 1 / 2)])
def test_supersolution_converges_beyond_the_benchmark_mesh(n, cost):
    # the shifted QVI's Newton from the shifted root used to need 145 to 354
    # iterations here and raised MaxIterExceeded
    system = assemble(PdeParams(d=2, reward=RewardFunction.two_regime(), N=n))
    kappa = cost / 2
    w = strict_supersolution(system, cost, kappa)
    assert sup_norm(qvi_residual(w, system, cost) - kappa) <= 1e-10


def test_supersolution_rejects_kappa_outside_cost_range(two_regime):
    system, _ = two_regime
    with pytest.raises(ValueError):
        strict_supersolution(system, COST, 0.0)
    with pytest.raises(ValueError):
        strict_supersolution(system, COST, COST)


def test_supersolution_approaches_solution_linearly_in_kappa(small_instance):
    system, _, u_ref = small_instance
    for kappa in (1e-2, 1e-3):
        w = strict_supersolution(system, COST, kappa)
        assert (w - u_ref).min() >= -1e-8
        # observed distance ~0.99*kappa/gamma; the 2*kappa/gamma cap is safe
        assert sup_norm(w - u_ref) <= 2.0 * kappa / system.gamma


# ------------------------------------------------------------ obstacle sweeps Q


def test_q_fixed_point_matches_penalty_reference(q_fixed, penalty_reference):
    u_q, _, _ = q_fixed
    u_pen, margin = penalty_reference
    diff = u_q - u_pen
    # the penalized solution approaches from below; the doubled-weight
    # increment is a safe cap on its remaining distance
    assert diff.min() >= -1e-8
    assert diff.max() <= 1.1 * margin + 1e-9


def test_q_fixed_point_is_feasible(two_regime, q_fixed):
    system, _ = two_regime
    u_q = q_fixed[0]
    costs = SwitchingCostMatrix.uniform(2, COST)
    assert (u_q - _obstacles(u_q, costs)[0]).min() >= -1e-8
    assert sup_norm(qvi_residual(u_q, system, COST)) <= 1e-8


def test_q_sweeps_increase_and_contract(two_regime, q_fixed):
    system, root = two_regime
    u1 = apply_Q(root, system, COST)
    assert (u1 - root).min() >= -1e-12
    assert sup_norm(q_fixed[0]) <= system.norm_F0 / system.gamma + 1e-12
    constants = ErrorConstants.for_system(system, COST)  # kappa is c/2
    increments = q_fixed[2]
    ratios = [
        increments[k + 1] / increments[k]
        for k in range(len(increments) - 1)
        if increments[k] > 1e-9
    ]
    assert max(ratios) <= 1.0 - constants.mu + 1e-9


def test_q_sweep_is_monotone_in_data(small_instance):
    system, root, _ = small_instance
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = root + rng.uniform(-1.0, 1.0, root.shape)
        u = v + rng.uniform(0.0, 1.0, root.shape)
        qu = apply_Q(u, system, COST)
        qv = apply_Q(v, system, COST)
        assert (qu - qv).min() >= -1e-8


def test_q_error_formula_dominates_observed_gap(two_regime, penalty_reference):
    system, root = two_regime
    u_pen, margin = penalty_reference
    u_exact = u_pen + margin
    constants = ErrorConstants.for_system(system, COST)
    u = root.copy()
    for n in range(31):
        bound = constants.L_kappa * (1.0 - constants.mu) ** n / constants.mu
        assert (u_exact - u).max() <= bound + 1e-6
        u = apply_Q(u, system, COST)


# ------------------------------------------------------------ obstacle sweeps T


@pytest.mark.parametrize("step, message", [
    (lambda u: u + 1.0 if u.max() < 1.0 else u * np.nan,
     "^sweep 2's output contains non-finite entries$"),
    # the (2, 1) output used to broadcast against the (2, 3) start and be
    # returned after two sweeps
    (lambda u: u[:, :1] + 1.0 if u.shape[1] > 1 else u,
     r"dimension mismatch: expected \(2, 3\), got \(2, 1\)"),
], ids=["non-finite", "shape-change"])
def test_fixed_point_stops_at_a_sweep_it_cannot_use(step, message):
    with pytest.raises(ValueError, match=message):
        iterate_to_fixed_point(step, np.zeros((2, 3)))


# F(u) = u on two regimes of three nodes
IDENTITY = AffineSystem(sp.identity(6, format="csr"), np.zeros((2, 3)), gamma=1.0)


@pytest.mark.parametrize("step", [
    lambda u: u,
    lambda u: apply_Q(u, IDENTITY, 1.0),
    lambda u: apply_T(u, IDENTITY, 1.0, 1.0),
], ids=["identity", "apply_Q", "apply_T"])
def test_fixed_point_names_a_non_finite_start(step):
    # each step used to report the start's NaN in its own terms: "sweep 1
    # returned non-finite entries", "psi contains non-finite entries" or
    # "initial iterate contains non-finite entries"
    start = np.zeros((2, 3))
    start[1, 0] = np.nan
    with pytest.raises(ValueError, match="^start contains non-finite entries$"):
        iterate_to_fixed_point(step, start)


@pytest.mark.parametrize("name, value", [
    ("max_sweeps", True),
    ("max_sweeps", 0),
    ("max_sweeps", -3),
    ("max_sweeps", 2.5),
    ("tol", float("nan")),
    ("tol", -1.0),
])
def test_fixed_point_rejects_a_budget_or_tolerance_it_cannot_use(name, value):
    with pytest.raises(ValueError, match=name):
        iterate_to_fixed_point(lambda u: u + 1.0, np.zeros((2, 3)), **{name: value})


def test_t_fixed_point_matches_q(two_regime, q_fixed):
    system, root = two_regime
    with warnings.catch_warnings():
        # from the root of F the sweeps must never decrease a component
        warnings.simplefilter("error", NonMonotoneSweep)
        u_t, _, _ = iterate_to_fixed_point(
            lambda v: apply_T(v, system, COST, 1.0), root, tol=1e-10
        )
    assert sup_norm(u_t - q_fixed[0]) <= 1e-8


def test_t_large_epsilon_pins_feasible_start():
    # F(v) = v + 1 > 0 near zero and the zero field is strictly feasible at
    # cost 1, so a huge anchor weight keeps the sweep at the start
    system = AffineSystem(sp.identity(4, format="csr"), -np.ones((2, 2)), gamma=1.0)
    t_u = apply_T(np.zeros((2, 2)), system, 1.0, 1e6)
    assert np.abs(t_u).max() <= 1e-4


def test_t_outpaces_q_at_small_cost(two_regime):
    system, root = two_regime
    cost = 1.0 / 128
    _, sweeps_q, _ = iterate_to_fixed_point(
        lambda v: apply_Q(v, system, cost), root, max_sweeps=3000, tol=1e-10
    )
    _, sweeps_t, _ = iterate_to_fixed_point(
        lambda v: apply_T(v, system, cost, cost**2), root, max_sweeps=3000, tol=1e-10
    )
    assert sweeps_t <= 20
    assert sweeps_q >= 100
    assert sweeps_t * 10 < sweeps_q


def test_t_rejects_nonpositive_epsilon(two_regime):
    system, root = two_regime
    with pytest.raises(ValueError):
        apply_T(root, system, COST, 0.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1", True])
@pytest.mark.parametrize("sweep", ["T", "T_rho"])
def test_time_marching_sweeps_name_an_unusable_epsilon(two_regime, sweep, epsilon):
    # NaN passed the epsilon <= 0 test, and NaN or inf then failed as a
    # SingularSlant "linear solve produced non-finite entries"; a string
    # failed as a bare TypeError, and True passed as 1
    system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 1e3)
    with pytest.raises(ValueError, match="epsilon must be a positive finite number"):
        if sweep == "T":
            apply_T(root, system, COST, epsilon)
        else:
            apply_T_rho(root, prob, epsilon)


# ----------------------------------------------------------- penalized sweeps


def test_q_rho_zero_weight_returns_root(two_regime):
    system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 0.0)
    out = apply_Q_rho(np.ones((2, 100)), prob)
    assert sup_norm(out - root) <= 1e-9
    # at rho = 0 both penalized sweeps are the root solve to the bit, also
    # from a start that activates penalty arguments
    for d, reward in ((2, RewardFunction.two_regime()), (3, RewardFunction.three_regime())):
        system = assemble(PdeParams(d=d, reward=reward))
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, COST), 0.0)
        start = np.linspace(-1.0, 1.0, d * 100).reshape(d, 100)
        expected = solve_root(system, start)[0].tobytes()
        assert apply_Q_rho(start, prob).tobytes() == expected
        assert apply_T_rho(start, prob, 1.0).tobytes() == expected


def test_q_rho_is_nonexpansive(small_instance):
    system, _, _ = small_instance
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 50.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        b = a + rng.uniform(-1.0, 1.0, (2, 2))
        qa = apply_Q_rho(a, prob)
        qb = apply_Q_rho(b, prob)
        assert sup_norm(qa - qb) <= sup_norm(a - b) * (1.0 + 1e-10)


def test_q_rho_sweeps_converge_from_below(two_regime):
    system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 1e3)
    u_rho, _ = solve_penalized(prob, root)
    u = root.copy()
    for _ in range(60):
        u = apply_Q_rho(u, prob)
        assert (u - u_rho).max() <= 1e-8
        if sup_norm(u - u_rho) <= 1e-6:
            break
    assert sup_norm(u - u_rho) <= 1e-5


def test_t_rho_fixed_point_matches_penalty_solution(two_regime):
    system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 1e3)
    u_rho, _ = solve_penalized(prob, root)
    u_t, _, _ = iterate_to_fixed_point(
        lambda v: apply_T_rho(v, prob, 1.0), root, tol=1e-6
    )
    assert sup_norm(u_t - u_rho) <= 1e-5


# ------------------------------------------------------------------ the driver


def test_sweep_driver_warns_on_decrease(two_regime, q_fixed):
    system, _ = two_regime
    with pytest.warns(NonMonotoneSweep):
        iterate_to_fixed_point(
            lambda v: apply_Q(v, system, COST), q_fixed[0] + 1.0, max_sweeps=2
        )


def test_sweep_driver_reports_increments(two_regime):
    system, root = two_regime
    u, sweeps, increments = iterate_to_fixed_point(
        lambda v: apply_Q(v, system, COST), root, max_sweeps=500, tol=1e-8
    )
    assert sweeps == len(increments)
    assert sweeps < 500
    assert increments[-1] < 1e-8
    assert all(inc >= 0.0 for inc in increments)


# --------------------------------------------------------- the descent formula


def test_integer_descent_minimizer_flat_branch():
    # continuous minimizer below zero: stay at n = 0
    n_star, m = phi_minimize(1.0, 0.5, 10.0)
    assert n_star == 0
    assert m == 1.0
    assert phi_upper_bound(1.0, 0.5, 10.0) == 1.0


def test_integer_descent_minimizer_matches_exhaustive_scan():
    nu, a, b = 100.0, 0.9, 0.001
    n_star, m = phi_minimize(nu, a, b)
    scan = min(range(201), key=lambda n: nu * a**n + b * n)
    assert n_star == scan
    bound = phi_upper_bound(nu, a, b)
    assert m <= bound <= 1.01 * m


def test_integer_descent_validates_inputs():
    for nu, a, b in [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.2, 1.0),
                     (1.0, 0.5, 0.0), (0.0, 0.5, 1.0)]:
        with pytest.raises(ValueError):
            phi_minimize(nu, a, b)


def test_integer_descent_bound_validates_inputs():
    # a bool a used to reach log(1.0) = 0 and raise a ZeroDivisionError
    with pytest.raises(ValueError, match=r"^a must be a finite number in \(0, 1\), got True$"):
        phi_upper_bound(1.0, True, 1.0)
    for nu, a, b in [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 0.5, 0.0), (0.0, 0.5, 1.0),
                     ("1", 0.5, 1.0)]:
        with pytest.raises(ValueError):
            phi_upper_bound(nu, a, b)


# ------------------------------------------------------------- error constants


def test_error_constants_formulas(two_regime):
    system, _ = two_regime
    f0 = system.norm_F0
    cons = ErrorConstants.for_system(system, COST)
    assert cons.kappa == COST / 2.0
    assert cons.L_kappa == pytest.approx((2.0 * f0 + cons.kappa) / system.gamma)
    assert cons.mu == pytest.approx(
        system.gamma * cons.kappa / (2.0 * f0 + cons.kappa)
    )
    assert cons.C >= f0
    # zero costs leave no kappa in (0, c)
    with pytest.raises(ValueError, match="^error constants need strictly positive costs"):
        ErrorConstants.for_system(system, 0.0)


def test_error_constants_derive_kappa_from_the_cost():
    cons = ErrorConstants(C=2.0, norm_F0=1.0, gamma=1.0, min_cost=0.5)
    assert cons.kappa == cons.min_cost / 2.0 == 0.25
    assert penalty_error_bound(cons, 1e3) > 0.0


@pytest.mark.parametrize("name, value", [("gamma", 0.0), ("C", np.nan), ("min_cost", 0.0),
                                         ("C", 0.0), ("C", 0.5)])
def test_error_constants_check_their_fields(name, value):
    # built directly, they were taken as given: a zero gamma or cost reached
    # penalty_error_bound as a bare ZeroDivisionError, a NaN C as "b must be
    # a positive finite number", and a C below norm_F0, which estimate_C
    # never returns, gave a bound from constants that cannot occur
    fields = {"C": 2.0, "norm_F0": 1.0, "gamma": 1.0, "min_cost": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        penalty_error_bound(ErrorConstants(**fields), 1e3)


def test_supremum_constant_exact_for_affine(small_instance):
    system, _, _ = small_instance
    radius = system.norm_F0 / system.gamma
    corners = [
        np.array([[s0, s1], [s2, s3]]) * radius
        for s0 in (-1, 1) for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)
    ]
    brute = max(np.abs(system.evaluate(u)).max() for u in corners)
    assert estimate_C(system) == pytest.approx(brute, rel=1e-12)


def test_penalty_error_bound_zero_above_cost_threshold(two_regime):
    system, _ = two_regime
    threshold = 2.0 * system.norm_F0 / system.gamma
    cons = ErrorConstants.for_system(system, threshold + 1.0)
    assert penalty_error_bound(cons, 1e3) == 0.0


def test_penalty_error_bound_dominates_observed(two_regime, penalty_reference, q_fixed):
    system, root = two_regime
    cons = ErrorConstants.for_system(system, COST)
    costs = SwitchingCostMatrix.uniform(2, COST)
    u_rho, _ = solve_penalized(PenalizedProblem(system, costs, 1e3), root)
    observed = sup_norm(q_fixed[0] - u_rho)
    bounds = [penalty_error_bound(cons, rho) for rho in (1e3, 2e3, 4e3, 8e3)]
    assert bounds[0] >= observed
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    for rho in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho must be a positive finite number"):
            penalty_error_bound(cons, rho)


def test_q_and_penalized_q_drift_apart_linearly(small_instance):
    system, root, _ = small_instance
    cons = ErrorConstants.for_system(system, COST)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, COST), 100.0)
    u_q, u_qr = root.copy(), root.copy()
    for n in range(1, 11):
        u_q = apply_Q(u_q, system, COST)
        u_qr = apply_Q_rho(u_qr, prob)
        assert sup_norm(u_q - u_qr) <= cons.C / 100.0 * n + 1e-6


# ------------------------------------------------------------- zero-cost limit


def test_hjb_collapse_reference_value(two_regime):
    system, _ = two_regime
    result = hjb_limit_solve(system, [1e3 * 2**k for k in range(6)])
    # published reference value at x = 0.5 for the zero-cost row
    assert result.values[25] == pytest.approx(6.52834, abs=1e-3)
    assert len(result.stages) == 6
    assert result.stages[-1][2].converged
    ratios = [
        result.regime_gaps[k] / result.regime_gaps[k + 1]
        for k in range(len(result.regime_gaps) - 1)
    ]
    assert all(1.8 <= r <= 2.2 for r in ratios)
    assert result.regime_gaps[-1] <= result.gap_bound


def test_hjb_validates_schedule(two_regime):
    system, _ = two_regime
    for bad in ([], [1e3, 1e3], [2e3, 1e3], [-1.0, 1e3]):
        with pytest.raises(ValueError):
            hjb_limit_solve(system, bad)
    # each entry as given, before a float cast that reads True and "2000"
    for bad, entry in (([True, 2e3], "rho_schedule[0]"), ([1.0, "2000"], "rho_schedule[1]")):
        with pytest.raises(ValueError, match=re.escape(entry)):
            hjb_limit_solve(system, bad)


def test_zero_cost_gap_trivial_and_observed(two_regime):
    system, root = two_regime
    assert zero_cost_gap_bound(root, root, 0.0, 1e3, 0.02) == 0.0
    result = hjb_limit_solve(system, [1e3])
    u_zero = result.stages[0][1]
    cost = 1.0 / 2048
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, cost), 1e3)
    u_cost, _ = solve_penalized(prob, root)
    gap = zero_cost_gap_bound(u_cost, u_zero, cost, 1e3, system.gamma)
    assert gap <= (2 - 1) * cost * 1e3 / system.gamma
    assert 0.005 <= gap <= 0.05


def test_zero_cost_gap_reports_violation_location():
    low = np.zeros((2, 3))
    high = np.zeros((2, 3))
    high[1, 2] = -1.0  # zero-cost value dips below the costly one
    with pytest.raises(GapBoundViolation) as info:
        zero_cost_gap_bound(low, high, 0.1, 10.0, 1.0)
    assert (info.value.regime, info.value.node) == (1, 2)
    big = np.zeros((2, 3))
    big[0, 1] = 100.0  # far beyond (d-1)*c*rho/gamma = 1
    with pytest.raises(GapBoundViolation) as info:
        zero_cost_gap_bound(low, big, 0.1, 10.0, 1.0)
    assert (info.value.regime, info.value.node) == (0, 1)


@pytest.mark.parametrize("name, value", [
    ("c", np.nan), ("c", np.inf), ("c", -0.1),
    ("rho", np.nan), ("rho", np.inf), ("rho", -10.0),
    ("gamma", np.nan), ("gamma", np.inf), ("gamma", -1.0), ("gamma", 0.0),
])
def test_zero_cost_gap_bound_names_an_unusable_constant(name, value):
    # a NaN or infinite bound passed every gap, so the 100 below went
    # unreported; a negative constant failed as a GapBoundViolation, and
    # gamma = 0 as a ZeroDivisionError
    low = np.zeros((2, 3))
    big = np.zeros((2, 3))
    big[0, 1] = 100.0
    constants = {"c": 0.1, "rho": 10.0, "gamma": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        zero_cost_gap_bound(low, big, constants["c"], constants["rho"], constants["gamma"])


@pytest.mark.parametrize("field", ["u_c_rho", "u_rho"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zero_cost_gap_bound_names_a_non_finite_field(field, bad):
    # a NaN gap passed both checks and came back as the max gap
    fields = {"u_c_rho": np.zeros((2, 3)), "u_rho": np.zeros((2, 3))}
    fields[field][1, 2] = bad
    with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
        zero_cost_gap_bound(fields["u_c_rho"], fields["u_rho"], 0.1, 10.0, 1.0)


def test_zero_cost_gap_bound_reads_three_regimes_from_the_fields():
    system = assemble(PdeParams(d=3, reward=RewardFunction.three_regime(), N=20))
    root, _ = solve_root(system, np.zeros((3, 20)))
    cost, rho = 1.0 / 64, 4e3
    u_cost, _ = solve_penalized(
        PenalizedProblem(system, SwitchingCostMatrix.uniform(3, cost), rho), root)
    u_zero, _ = solve_penalized(
        PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.0), rho), root)
    gap = zero_cost_gap_bound(u_cost, u_zero, cost, rho, system.gamma)
    assert 0.0 < gap <= 2 * cost * rho / system.gamma
    # a gap between the d = 2 bound c*rho/gamma = 1 and the d = 3 bound
    # 2*c*rho/gamma = 2 passes only because the fields carry three regimes
    low = np.zeros((3, 4))
    high = np.zeros((3, 4))
    high[1, 3] = 1.5
    assert zero_cost_gap_bound(low, high, 0.1, 10.0, 1.0) == 1.5
    with pytest.raises(GapBoundViolation):
        zero_cost_gap_bound(low[:2], high[:2], 0.1, 10.0, 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        zero_cost_gap_bound(low, high[:2], 0.1, 10.0, 1.0)


def test_hjb_gap_shrinks_linearly_in_cost(two_regime):
    system, root = two_regime
    u_hjb = hjb_limit_solve(system, [32e3]).stages[0][1]
    costs = [1.0 / 512, 1.0 / 2048, 1.0 / 8192]
    gaps = []
    for c in costs:
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, c), 32e3)
        u_c, _ = solve_penalized(prob, root)
        gaps.append(sup_norm(u_hjb - u_c))
    slope = sum(g * c for g, c in zip(gaps, costs)) / sum(c * c for c in costs)
    assert slope > 0.0
    for g, c in zip(gaps, costs):
        assert abs(g - slope * c) <= 0.2 * slope * c
