"""Ground-truth solver behaviors and oracle-vs-oracle agreement."""
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qvipen.core import (
    AffineSystem,
    PenalizedProblem,
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
from qvipen.oracle import _BLOCK, _march_operators
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
    {"max_steps": True}, {"tol": True}, {"step": True}, {"tol": "1e-9"},
])
def test_pseudo_time_rejects_an_empty_budget_or_a_bad_step(kwargs):
    # a NaN or negative tol used to spend the whole step budget, a float
    # max_steps failed with a TypeError from range, a bool was read as 1 and
    # a string failed with a TypeError that named no parameter
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


def reference_march(prob, step=None, tol=1e-9, stop=None):
    """pseudo_time_solve's march written plainly, allocating as it goes.

    Returns the solution and the number of residual evaluations before the
    one that met tol. With ``stop=m`` it returns after the m-th evaluation
    instead, if that one does not meet tol: the iterate the next evaluation
    would see, and the m-th residual.
    """
    lift, floor, reduce = _march_operators(prob)
    d, n = prob.system.d, prob.system.N
    y = np.append(np.zeros(d * n), 1.0)
    u = y[:-1]
    if step is None:
        step = 0.9 / (np.abs(np.diag(lift)[: d * n]).max() + prob.rho * (d - 1))
    delta, halvings, growth, prev, steps = step, 0, 0, np.inf, 0
    while True:
        g = reduce @ np.maximum(lift @ y, floor)
        res = np.abs(g).max()
        if res <= tol:
            return u.reshape(d, n), steps
        steps += 1
        growth = 100 if not np.isfinite(res) else 0 if res <= prev else growth + 1
        if growth >= 100:
            halvings += 1
            assert halvings <= 10
            delta, growth, prev = delta / 2, 0, np.inf
            u[:] = 0.0
        else:
            prev = res
            u -= delta * g
        if steps == stop:
            return u.reshape(d, n), res


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("step_scale", [0.5, 1.0])
def test_march_trajectory_matches_the_plain_reference(seed, step_scale):
    # stepping through preallocated buffers changes no rounding: the result
    # is bitwise the reference's, after the same number of steps. A last-bit
    # change in a step often washes out of the converged iterate, so several
    # instances are needed; folding the step into R shows on half of these.
    # Scale 1 takes the default step, 0.5 passes half of it explicitly
    rng = np.random.default_rng(seed)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 10.0)
    step = None if step_scale == 1.0 else step_scale * 0.9 / (
        np.abs(system.matrix.diagonal()).max() + prob.rho * (system.d - 1))
    expected, steps = reference_march(prob, step=step)
    u = pseudo_time_solve(prob, step=step, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, step=step, tol=1e-9, max_steps=steps)


def test_march_trajectory_matches_the_reference_through_halvings():
    expected, steps = reference_march(tiny_problem(), step=3.0, tol=1e-10)
    u = pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10, max_steps=steps)


def test_march_matches_the_reference_over_hundreds_of_blocks():
    # a verify-style instance at rho = 1e3 takes about 30k steps
    rng = np.random.default_rng(2)
    system = random_affine_system(rng, d=3, n=2, gamma=1.0)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 1e3)
    expected, steps = reference_march(prob)
    assert steps > 100 * _BLOCK
    u = pseudo_time_solve(prob, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, tol=1e-9, max_steps=steps)


@pytest.mark.parametrize("max_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_budget_spent_inside_or_at_the_end_of_a_block(max_steps):
    # the instance needs 310 evaluations; the message carries the residual of
    # the last one the budget allows
    rng = np.random.default_rng(0)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 10.0)
    _, res = reference_march(prob, stop=max_steps)
    message = re.escape(f"residual {res:.3e} > 1.000e-09 after {max_steps} steps")
    with pytest.raises(MaxStepsExceeded, match=message):
        pseudo_time_solve(prob, tol=1e-9, max_steps=max_steps)


def test_restart_inside_a_block_drops_the_rest_of_it():
    # step 1500 on F(u) = u - b multiplies the error by -1499 per step, so
    # the iterate overflows and the residual turns NaN at evaluation 98,
    # inside the second block, and the march restarts from zero there; the
    # steps that block took past it run on NaN and must leave no trace. Nine
    # growth halvings follow before the step contracts.
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        before, _ = reference_march(prob, step=1500.0, stop=97)
        after, res = reference_march(prob, step=1500.0, stop=98)
        expected, steps = reference_march(prob, step=1500.0)
    assert before.any() and not after.any() and not np.isfinite(res)
    assert 98 % _BLOCK != 0
    # the evaluation after the restart sees u = 0, so its residual is |b|
    with pytest.raises(MaxStepsExceeded, match=r"residual 2\.000e\+00 > .* after 99 steps"):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=99)
    u = pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps)


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


def random_problem(case):
    rng = np.random.default_rng(case["seed"])
    system = random_affine_system(rng, d=case["d"], n=case["n"])
    costs = SwitchingCostMatrix.uniform(case["d"], case["cost"])
    return PenalizedProblem(system, costs, case["rho"]), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances)
def test_march_residual_matches_core(case):
    prob, rng = random_problem(case)
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
