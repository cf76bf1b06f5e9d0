"""Ground-truth solver behaviors and oracle-vs-oracle agreement."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qvipen.core import (
    AffineSystem,
    PenalizedProblem,
    PenaltyFunction,
    SwitchingCostMatrix,
    penalized_residual,
    sup_norm,
)
from qvipen.newton import solve_penalized
from qvipen.oracle import (
    DivergenceDetected,
    MaxStepsExceeded,
    MultiplePatterns,
    NoConsistentPattern,
    active_set_enumerate,
    pseudo_time_solve,
)
from qvipen.oracle import _residual as oracle_residual
from qvipen.testing import random_affine_system


def identity_system(b):
    b = np.asarray(b, dtype=float)
    return AffineSystem(sp.eye(b.size, format="csr"), b, gamma=1.0)


def tiny_problem(rho=1.0):
    """d=2, N=1, F(u) = u - (0, 2), zero switching cost."""
    return PenalizedProblem(
        identity_system(np.array([[0.0], [2.0]])),
        SwitchingCostMatrix.uniform(2, 0.0),
        rho=rho,
    )


def test_pseudo_time_tiny_instance():
    # hand-solve: regime-0 penalty active, regime-1 inactive, root (1, 2)
    u = pseudo_time_solve(tiny_problem(), tol=1e-10)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)


def test_pseudo_time_rho_zero_finds_root():
    rng = np.random.default_rng(41)
    b = rng.uniform(-1.0, 1.0, (2, 3))
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 1.0), rho=0.0)
    u = pseudo_time_solve(prob, tol=1e-10)
    assert sup_norm(u - b) <= 1e-9


def test_pseudo_time_honors_step_budget():
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(tiny_problem(), tol=1e-12, max_steps=3)


@pytest.mark.parametrize("kwargs", [
    {"max_steps": 0}, {"step": 0.0}, {"step": -1.0}, {"step": np.inf}, {"step": np.nan},
    {"max_steps": 1e3}, {"tol": 0.0}, {"tol": -1.0}, {"tol": np.inf}, {"tol": np.nan},
])
def test_pseudo_time_rejects_an_empty_budget_or_a_bad_step(kwargs):
    # a NaN or negative tol used to spend the whole step budget, and a float
    # max_steps failed with a TypeError from range
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        pseudo_time_solve(tiny_problem(), **kwargs)


def test_march_carries_a_shift():
    # F shifted down by 0.3 is the system with b + 0.3; the march, its
    # residual and Newton all see the shift
    rng = np.random.default_rng(61)
    base = random_affine_system(rng, d=3, n=2)
    shifted = AffineSystem(base.matrix, base.rhs.reshape(3, 2) + 0.3, base.gamma)
    costs = SwitchingCostMatrix.uniform(3, 0.1)
    prob = PenalizedProblem(shifted, costs, rho=10.0)
    u = rng.uniform(-2.0, 2.0, (3, 2))
    assert sup_norm(oracle_residual(prob, u) - penalized_residual(u, prob)) <= 1e-12
    marched = pseudo_time_solve(prob, tol=1e-10)
    newton, report = solve_penalized(prob, np.zeros((3, 2)))
    assert report.converged
    assert sup_norm(marched - newton) <= 1e-9
    unshifted, _ = solve_penalized(PenalizedProblem(base, costs, rho=10.0), np.zeros((3, 2)))
    assert sup_norm(marched - unshifted) > 1e-3


def test_pseudo_time_halves_oversized_step():
    # step 3 on F(u) = u - b scales the error by -2 every step, so the
    # residual grows strictly until the step is halved into the stable range
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    u = pseudo_time_solve(prob, step=3.0, tol=1e-9)
    assert sup_norm(u - b) <= 1e-8


def test_pseudo_time_restart_resets_the_iterate_in_place():
    # step 3 is halved twice before the penalized march contracts; each
    # restart zeroes the iterate the march updates in place
    u = pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)
    assert np.array_equal(u, pseudo_time_solve(tiny_problem(), step=0.75, tol=1e-10))


def test_pseudo_time_divergence_reported():
    # ten halvings of step 1e9 still leave the iteration expansive
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    with pytest.raises(DivergenceDetected):
        pseudo_time_solve(prob, step=1e9, tol=1e-9)


def test_pseudo_time_quadratic_penalty():
    # degree-2 penalty has no Newton path; the root solves u0 = (2 - u0)^2
    # with u1 = 2, which lands on (1, 2) once more
    prob = PenalizedProblem(
        identity_system(np.array([[0.0], [2.0]])),
        SwitchingCostMatrix.uniform(2, 0.0),
        rho=1.0,
        penalty=PenaltyFunction(sigma=0.5),
    )
    u = pseudo_time_solve(prob, tol=1e-10)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-8)


def test_enumerate_tiny_instance():
    u = active_set_enumerate(tiny_problem())
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-12)


def test_enumerate_huge_cost_gives_root():
    rng = np.random.default_rng(43)
    b = rng.uniform(-1.0, 1.0, (2, 2))
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 10.0), rho=5.0)
    u = active_set_enumerate(prob)
    assert sup_norm(u - b) <= 1e-12


def test_enumerate_agrees_with_marching():
    rng = np.random.default_rng(47)
    for _ in range(5):
        system = random_affine_system(rng, d=2, n=2)
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1),
                                rho=float(rng.uniform(0.5, 20.0)))
        exact = active_set_enumerate(prob)
        marched = pseudo_time_solve(prob, tol=1e-9)
        assert sup_norm(exact - marched) <= 1e-8


def test_enumerate_rejects_oversize():
    rng = np.random.default_rng(53)
    system = random_affine_system(rng, d=3, n=4)  # 24 penalty terms
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), rho=1.0)
    with pytest.raises(ValueError, match="caps"):
        active_set_enumerate(prob)


def test_enumerate_rejects_degree():
    prob = tiny_problem()
    bad = PenalizedProblem(prob.system, prob.costs, rho=1.0, penalty=PenaltyFunction(2.0))
    with pytest.raises(ValueError, match="degree"):
        active_set_enumerate(bad)


def test_enumerate_exact_tie_at_zero():
    # symmetric instance whose root makes every penalty argument exactly 0;
    # the strict sign test keeps only the all-off pattern, no tie is reported
    matrix = sp.csr_matrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    system = AffineSystem(matrix, np.array([[1.0], [1.0]]), gamma=0.5)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), rho=3.0)
    u = active_set_enumerate(prob)
    assert np.allclose(u, 2.0)


def test_enumerate_degenerate_tie_reported():
    # a non-monotone matrix loses uniqueness: both the all-off pattern at
    # (1, 0.5) and the regime-0-on pattern at (-2, 0.5) reproduce their signs
    system = AffineSystem(sp.csr_matrix(np.diag([-1.0, 1.0])),
                          np.array([[-1.0], [0.5]]), gamma=1.0)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 1.0), rho=2.0)
    with pytest.raises(MultiplePatterns) as info:
        active_set_enumerate(prob)
    assert info.value.patterns == [0, 1]


def test_no_consistent_pattern_is_detectable():
    # negating the penalty weight flips every sign test; no pattern survives
    prob = tiny_problem()
    object.__setattr__(prob, "rho", -1.0)
    with pytest.raises(NoConsistentPattern):
        active_set_enumerate(prob)


def test_enumerate_skips_singular_pattern():
    # pattern 1 (regime 0 on) lifts diag(-2, 1) to [[0, -2], [0, 1]], which is
    # exactly singular; the enumeration passes it over and keeps the all-off
    # pattern at the root (0, 0)
    system = AffineSystem(sp.csr_matrix(np.diag([-2.0, 1.0])), np.zeros((2, 1)), gamma=1.0)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 1.0), rho=2.0)
    u = active_set_enumerate(prob)
    assert np.array_equal(u, np.zeros((2, 1)))


def test_enumerate_across_batches_matches_newton():
    # d=2, n=7: 14 penalty terms, 16384 patterns; the solution's pattern,
    # 6344, lies past the first batch of 4096
    rng = np.random.default_rng(59)
    system = random_affine_system(rng, d=2, n=7)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1), rho=5.0)
    exact = active_set_enumerate(prob)
    newton, report = solve_penalized(prob, np.zeros((2, 7)))
    assert report.converged
    assert sup_norm(exact - newton) <= 1e-9


instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "d": st.sampled_from([2, 3]),
    "n": st.sampled_from([1, 2]),
    "cost": st.sampled_from([0.0, 0.1, 1.0]),
    "rho": st.floats(0.0, 1e3),
})


def random_problem(case, sigma=1.0):
    rng = np.random.default_rng(case["seed"])
    system = random_affine_system(rng, d=case["d"], n=case["n"])
    costs = SwitchingCostMatrix.uniform(case["d"], case["cost"])
    prob = PenalizedProblem(system, costs, case["rho"], PenaltyFunction(sigma))
    return prob, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances, st.sampled_from([0.5, 1.0, 2.0]))
def test_march_residual_matches_core(case, sigma):
    prob, rng = random_problem(case, sigma)
    u = rng.uniform(-2.0, 2.0, (case["d"], case["n"]))
    assert sup_norm(oracle_residual(prob, u) - penalized_residual(u, prob)) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances)
def test_enumerate_matches_newton(case):
    prob, _ = random_problem(case)
    exact = active_set_enumerate(prob)
    newton, report = solve_penalized(prob, np.zeros((case["d"], case["n"])))
    assert report.converged
    assert sup_norm(exact - newton) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances)
def test_solutions_increase_with_rho(case):
    prob, _ = random_problem(case)
    zero = np.zeros((case["d"], case["n"]))
    previous = None
    for rho in (0.0, 1.0, 10.0, 1e3):
        u, _ = solve_penalized(PenalizedProblem(prob.system, prob.costs, rho), zero)
        if previous is not None:
            assert np.all(u >= previous - 1e-12)
        previous = u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances)
def test_comparison_principle(case):
    # raising b in F(u) = Au - b turns u^rho into a subsolution of the new
    # penalized equation, so the new solution lies above it
    prob, rng = random_problem(case)
    system, zero = prob.system, np.zeros((case["d"], case["n"]))
    b = system.rhs.reshape(zero.shape)
    raised = AffineSystem(system.matrix, b + rng.uniform(0.0, 1.0, b.shape), system.gamma)
    low, _ = solve_penalized(prob, zero)
    high, _ = solve_penalized(PenalizedProblem(raised, prob.costs, prob.rho), zero)
    assert np.all(high >= low - 1e-12)
