"""Ground-truth solver behaviors and oracle-vs-oracle agreement."""
import re
import tracemalloc
import warnings

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
from qvipen.oracle import _march_operators
from qvipen.oracle import _residual as oracle_residual
from qvipen.pde import PdeParams, RewardFunction, assemble
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


def test_pseudo_time_halves_a_step_that_stalls():
    # step 1 on the tiny instance cycles through iterates whose residual is
    # exactly 2 at every evaluation: it never grows, and never falls, so
    # only a rule that counts a level residual halves the step
    u = pseudo_time_solve(tiny_problem(), step=1.0, tol=1e-10, max_steps=1000)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)


def test_pseudo_time_restart_resets_the_iterate_in_place():
    # step 3 is halved twice before the penalized march contracts; each
    # restart zeroes the iterate and empties the memory, so the march then
    # runs as a fresh one at step 0.75
    u = pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)
    assert np.array_equal(u, pseudo_time_solve(tiny_problem(), step=0.75, tol=1e-10))


def test_pseudo_time_divergence_reported():
    # ten halvings of step 1e9 still leave the iteration expansive; its
    # residual never falls, so the memory stays empty and no candidate
    # extrapolates past the growth that the halving rule must see
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    with pytest.raises(DivergenceDetected):
        pseudo_time_solve(prob, step=1e9, tol=1e-9)


def reference_march(prob, step=None, tol=1e-9, stop=None):
    """pseudo_time_solve's safeguarded march written plainly, allocating as it goes.

    Returns the solution and the log of its residual evaluations: each
    entry is the residual sup-norm and whether the march moved to the point
    (False for a rejected candidate). With ``stop=m`` it returns after the
    m-th evaluation instead, if that one does not meet tol: the point the
    next evaluation would see, and the log.
    """
    lift, floor, reduce = _march_operators(prob)
    d, n = prob.system.d, prob.system.N
    size = d * n
    if step is None:
        step = 0.9 / (np.abs(np.diag(lift)[:size]).max() + prob.rho * (d - 1))
    delta, halvings, growth = step, 0, 0
    # the iterate, G at it and its residual; none before the first point
    u, g, res = None, None, np.inf
    trial, accelerated = np.zeros(size), False
    # [u, G(u)] differences of the last three steps that lowered the residual
    history, log = [], []
    while True:
        g_trial = reduce @ np.maximum(lift @ np.append(trial, 1.0), floor)
        res_trial = np.abs(g_trial).max()
        kept = res_trial < res or not accelerated
        log.append((res_trial, kept))
        if res_trial <= tol:
            return trial.reshape(d, n), log
        if not kept:
            history = []
            trial, accelerated = u - delta * g, False
        else:
            falls = res_trial < res
            growth = 100 if not np.isfinite(res_trial) else 0 if falls else growth + 1
            if growth >= 100:
                halvings += 1
                assert halvings <= 10
                delta, growth = delta / 2, 0
                u, g, res, history = None, None, np.inf, []
                trial, accelerated = np.zeros(size), False
            else:
                diff = None
                if falls and u is not None:
                    diff = np.concatenate([trial - u, g_trial - g])
                if diff is not None and np.isfinite(diff).all():
                    history = (history + [diff])[-3:]
                else:
                    history = []
                u, g, res = trial, g_trial, res_trial
                if history:
                    diffs = np.array(history)
                    gamma = np.linalg.lstsq(diffs[:, size:].T, g, rcond=None)[0]
                    mixed = np.concatenate([u, g]) - gamma @ diffs
                    trial, accelerated = mixed[:size] - delta * mixed[size:], True
                else:
                    trial, accelerated = u - delta * g, False
        if len(log) == stop:
            return trial.reshape(d, n), log


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("step_scale", [0.5, 1.0])
def test_march_trajectory_matches_the_plain_reference(seed, step_scale):
    # stepping through preallocated buffers changes no rounding: the result
    # is bitwise the reference's, after the same number of evaluations. A
    # last-bit change in a step often washes out of the converged iterate,
    # so several instances are needed; each takes 48-102 evaluations, with
    # both kept and rejected candidates. Scale 1 takes the default step, 0.5
    # passes half of it explicitly
    rng = np.random.default_rng(seed)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 10.0)
    step = None if step_scale == 1.0 else step_scale * 0.9 / (
        np.abs(system.matrix.diagonal()).max() + prob.rho * (system.d - 1))
    expected, log = reference_march(prob, step=step)
    steps = len(log) - 1
    assert not all(kept for _, kept in log)
    u = pseudo_time_solve(prob, step=step, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, step=step, tol=1e-9, max_steps=steps)


def test_march_trajectory_matches_the_reference_through_halvings():
    expected, log = reference_march(tiny_problem(), step=3.0, tol=1e-10)
    steps = len(log) - 1
    u = pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10, max_steps=steps)


def test_march_matches_the_reference_over_hundreds_of_blocks():
    # a verify-style instance at rho = 1e3, the hard kind: terms sit near
    # their kink, about half the candidates are rejected, and the memory
    # restarts thousands of times over 5216 evaluations
    rng = np.random.default_rng(2)
    system = random_affine_system(rng, d=3, n=2, gamma=1.0)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 1e3)
    expected, log = reference_march(prob)
    steps = len(log) - 1
    assert steps > 5000
    assert sum(not kept for _, kept in log) > 2000
    u = pseudo_time_solve(prob, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, tol=1e-9, max_steps=steps)


@pytest.mark.parametrize("max_steps", [63, 64, 65, 128])
def test_budget_spent_inside_or_at_the_end_of_a_block(max_steps):
    # the instance needs 1239 evaluations; evaluations 63 and 65 are
    # rejected candidates, 64 and 128 points the march moves to. Every one
    # counts against the budget, and the message carries the residual of
    # the last one the budget allows, a rejected candidate's included
    rng = np.random.default_rng(0)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 1e3)
    _, log = reference_march(prob, stop=max_steps)
    res, kept = log[-1]
    assert kept == (max_steps in (64, 128))
    message = re.escape(f"residual {res:.3e} > 1.000e-09 after {max_steps} steps")
    with pytest.raises(MaxStepsExceeded, match=message):
        pseudo_time_solve(prob, tol=1e-9, max_steps=max_steps)


def test_restart_inside_a_block_drops_the_rest_of_it():
    # step 1500 on F(u) = u - b multiplies the error by -1499 per step. The
    # residual grows from the first step, so the memory stays empty and the
    # march takes plain steps until the iterate overflows and the residual
    # turns NaN at evaluation 98. The march restarts from zero there, and
    # the NaN step must leave no trace: nine growth halvings follow before
    # the step contracts, and only then does the march accelerate.
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        before, _ = reference_march(prob, step=1500.0, stop=97)
        after, log = reference_march(prob, step=1500.0, stop=98)
        expected, full = reference_march(prob, step=1500.0)
    assert before.any() and not after.any() and not np.isfinite(log[-1][0])
    # the evaluation after the restart sees u = 0, so its residual is |b|
    with pytest.raises(MaxStepsExceeded, match=r"residual 2\.000e\+00 > .* after 99 steps"):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=99)
    steps = len(full) - 1
    u = pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps)


def record_fits(monkeypatch):
    """Make every least-squares fit check that its inputs are finite, and
    return the list of (columns, rank) of the fits made from then on."""
    fits = []
    lstsq = np.linalg.lstsq

    def checked(a, b, rcond):
        assert np.isfinite(a).all() and np.isfinite(b).all()
        solution = lstsq(a, b, rcond=rcond)
        fits.append((a.shape[1], int(solution[2])))
        return solution

    monkeypatch.setattr(np.linalg, "lstsq", checked)
    return fits


def test_the_fit_never_sees_a_non_finite_value(monkeypatch):
    # F(u) = Au - b with |b| near the largest float: evaluation 6 lowers the
    # residual, but G flips sign across it and the difference of the two
    # residuals overflows, so that step is not remembered; evaluation 7 is
    # NaN and restarts the march, which then converges. The NaN restart
    # and the divergent step 1e9 never put a non-finite value into a fit.
    fits = record_fits(monkeypatch)
    a = np.array([[1.9778601603692831, -1.6491531198311506],
                  [1.3722391641009521, 0.6449593561415905]])
    b = np.array([[5.686934006995462e307], [-2.776003050136637e307]])
    system = AffineSystem(sp.csr_matrix(a), b, gamma=0.1)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), 0.0)
    step = 0.9098806333502949
    with np.errstate(over="ignore", invalid="ignore"):
        _, log = reference_march(prob, step=step, tol=1e298, stop=7)
        expected, full = reference_march(prob, step=step, tol=1e298)
    assert log[5][0] < log[4][0] and not np.isfinite(log[6][0])
    u = pseudo_time_solve(prob, step=step, tol=1e298, max_steps=len(full))
    assert np.array_equal(u, expected)
    assert sup_norm(u - np.linalg.solve(a, b)) <= 1e-9 * sup_norm(b)
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    pseudo_time_solve(prob, step=1500.0, tol=1e-9)
    with pytest.raises(DivergenceDetected):
        pseudo_time_solve(prob, step=1e9, tol=1e-9)
    assert fits


def test_a_rank_deficient_history_fits_without_a_warning(monkeypatch):
    # the tiny instance and rho = 0 on an identity system are solved within
    # five evaluations, and at rho = 1e3 the tiny instance's last fit holds
    # three differences in R^2: rank 2, which the minimum-norm fit takes
    # with no warning and no LinAlgError
    fits = record_fits(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, root in ((1.0, 1.0), (1e3, 2e3 / 1001)):
            u = pseudo_time_solve(tiny_problem(rho), tol=1e-10, max_steps=5)
            assert np.allclose(u, [[root], [2.0]], atol=1e-9)
        b = np.random.default_rng(41).uniform(-1.0, 1.0, (2, 3))
        prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 1.0), 0.0)
        assert sup_norm(pseudo_time_solve(prob, tol=1e-10, max_steps=3) - b) <= 1e-9
    assert (3, 2) in fits


def oracle_pool():
    """The 72 problems of the benchmark's oracle pool: 12 rounds of a d = 2
    and a d = 3 verify-style system, each at rho = 0, 1 and 1e3."""
    for k in range(12):
        rng = np.random.default_rng([2024, k])
        for d in (2, 3):
            n = int(rng.choice([1, 2]))
            cost = float(rng.choice([0.0, 0.1, 1.0]))
            system = random_affine_system(rng, d=d, n=n, gamma=1.0)
            for rho in (0.0, 1.0, 1e3):
                yield PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), rho)


def test_acceleration_solves_the_benchmark_pool():
    # the plain march took 557,835 evaluations on this pool, up to about
    # 46k on one problem; the accelerated one takes 13,992, at most 2907
    problems = list(oracle_pool())
    assert len(problems) == 72
    for prob in problems:
        u = pseudo_time_solve(prob, tol=1e-9, max_steps=5000)
        assert sup_norm(u - active_set_enumerate(prob)) <= 1e-9


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


def test_enumerate_rejects_oversize_before_it_allocates():
    # 1000 penalty terms: K and R would take about 50 MB
    system = assemble(PdeParams(d=2, reward=RewardFunction.two_regime(), N=500))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1), rho=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="caps"):
            active_set_enumerate(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
