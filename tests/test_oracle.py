"""Ground-truth solver behaviors and oracle-vs-oracle agreement."""
import itertools
import re
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

from qvipen import oracle
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
from qvipen.oracle import _acyclic_patterns, _march_operators
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
    u = pseudo_time_solve(tiny_problem(), tol=1e-10, max_steps=100)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)


def test_pseudo_time_rho_zero_finds_root():
    rng = np.random.default_rng(41)
    b = rng.uniform(-1.0, 1.0, (2, 3))
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 1.0), rho=0.0)
    u = pseudo_time_solve(prob, tol=1e-10, max_steps=100)
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
    marched = pseudo_time_solve(prob, tol=1e-10, max_steps=1000)
    newton, report = solve_penalized(prob, np.zeros((3, 2)))
    assert report.converged
    assert sup_norm(marched - newton) <= 1e-9
    unshifted, _ = solve_penalized(PenalizedProblem(base, costs, rho=10.0), np.zeros((3, 2)))
    assert sup_norm(marched - unshifted) > 1e-3


def defined_operators(prob):
    """K, floor and R of the march as their definition states them: blocks
    around the Kronecker products of the (P, d) difference matrix D and the
    (d, P) scatter S with I_N."""
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


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rho", [0.0, 1.0, 1e3])
def test_march_operators_match_their_definition(d, n, rho):
    # the index writes give the definition's values, the sign of a zero
    # aside (np.array_equal counts -0.0 equal to 0.0), in C order, which
    # the bits of the march's matrix-vector products depend on
    rng = np.random.default_rng([d, n])
    system = random_affine_system(rng, d=d, n=n)
    varied = rng.uniform(0.0, 2.0, (d, d))
    for costs in (SwitchingCostMatrix.uniform(d, 0.1), SwitchingCostMatrix(varied)):
        prob = PenalizedProblem(system, costs, rho)
        for built, defined in zip(_march_operators(prob), defined_operators(prob)):
            assert np.array_equal(built, defined)
            assert built.flags.c_contiguous


def test_the_sign_of_a_zero_in_the_operators_reaches_no_result(monkeypatch):
    # the definition writes -0.0 where the index writes leave +0.0; on the
    # benchmark pool the march, the enumeration and the residual return the
    # same bytes from either
    problems = list(oracle_pool())
    u = np.linspace(-1.0, 1.0, 6)

    def results():
        return [(pseudo_time_solve(prob, tol=1e-9, max_steps=300).tobytes(),
                 active_set_enumerate(prob).tobytes(),
                 oracle_residual(prob, u[:prob.system.d * prob.system.N]).tobytes())
                for prob in problems]

    built = results()
    monkeypatch.setattr(oracle, "_march_operators", defined_operators)
    assert results() == built


def test_pseudo_time_halves_oversized_step():
    # step 3 on F(u) = u - b scales the error by -2 every step, so the
    # residual grows strictly until the step is halved into the stable range
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    u = pseudo_time_solve(prob, step=3.0, tol=1e-9, max_steps=1000)
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
    u = pseudo_time_solve(tiny_problem(), step=3.0, tol=1e-10, max_steps=1000)
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-9)
    fresh = pseudo_time_solve(tiny_problem(), step=0.75, tol=1e-10, max_steps=1000)
    assert np.array_equal(u, fresh)


def test_pseudo_time_divergence_reported():
    # ten halvings of step 1e9 still leave the iteration expansive; its
    # residual never falls, so the memory stays empty and no candidate
    # extrapolates past the growth that the halving rule must see
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    with pytest.raises(DivergenceDetected):
        pseudo_time_solve(prob, step=1e9, tol=1e-9, max_steps=2000)


def reference_fit(a, b):
    """np.linalg.lstsq(a, b, rcond=None)[0], as a plain call of scipy's
    LAPACK gelsd with its own workspace query. The march's fit calls the
    same LAPACK, so the trajectories can be compared bit for bit even where
    numpy's and scipy's wheels bundle different LAPACK builds."""
    m, n = a.shape
    gelsd, gelsd_lwork = get_lapack_funcs(("gelsd", "gelsd_lwork"), dtype=np.float64)
    work, iwork, info = gelsd_lwork(m, n, 1)
    assert info == 0
    rhs = np.zeros((max(m, n), 1))
    rhs[:m, 0] = b
    x, _, _, info = gelsd(a, rhs, int(work), iwork, np.finfo(float).eps * max(m, n))
    assert info == 0
    return x[:n, 0]


class Evaluation(NamedTuple):
    """One residual evaluation of the reference march: the residual
    sup-norm, whether the march moved to the point (False for a rejected
    candidate), how many times the point was shortened from a rejected
    candidate (0 for a fresh candidate or a plain step) and how many
    differences the candidate was fitted to (0 for a plain step)."""
    residual: float
    kept: bool
    shortened: int
    memory: int


def reference_march(prob, step=None, tol=1e-9, stop=None, cap=10_000):
    """pseudo_time_solve's safeguarded march written plainly, allocating as it goes.

    Returns the solution and the log of its residual evaluations, one
    ``Evaluation`` each. With ``stop=m`` it returns after the m-th
    evaluation instead, if that one does not meet tol: the point the next
    evaluation would see, and the log. A march that needs more than ``cap``
    evaluations fails the calling test instead of running on.
    """
    lift, floor, reduce = _march_operators(prob)
    d, n = prob.system.d, prob.system.N
    size = d * n
    if step is None:
        step = 0.9 / (np.abs(np.diag(lift)[:size]).max() + prob.rho * (d - 1))
    delta, halvings, growth = step, 0, 0
    # the iterate, G at it and its residual; none before the first point
    u, g, res = None, None, np.inf
    trial, accelerated, shortened = np.zeros(size), False, 0
    # [u, G(u)] differences of the last six steps that lowered the residual
    history, log = [], []
    while True:
        assert len(log) < cap, f"the reference march is not done after {cap} evaluations"
        g_trial = reduce @ np.maximum(lift @ np.append(trial, 1.0), floor)
        res_trial = np.abs(g_trial).max()
        kept = bool(res_trial < res or not accelerated)
        log.append(Evaluation(res_trial, kept, shortened, len(history) if accelerated else 0))
        if res_trial <= tol:
            return trial.reshape(d, n), log
        if not kept:
            plain = u - delta * g
            if shortened < 2:
                # a tenth of the rejected point's extrapolation, memory kept
                trial, shortened = plain + 0.1 * (trial - plain), shortened + 1
            else:
                history = []
                trial, accelerated, shortened = plain, False, 0
        else:
            shortened = 0
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
                    history = (history + [diff])[-6:]
                else:
                    history = []
                u, g, res = trial, g_trial, res_trial
                if history:
                    diffs = np.array(history)
                    gamma = reference_fit(diffs[:, size:].T, g)
                    mixed = np.concatenate([u, g]) - gamma @ diffs
                    trial, accelerated = mixed[:size] - delta * mixed[size:], True
                else:
                    trial, accelerated = u - delta * g, False
        if len(log) == stop:
            return trial.reshape(d, n), log


def long_march_problem():
    """A verify-style instance whose march takes 1386 evaluations."""
    rng = np.random.default_rng(6)
    system = random_affine_system(rng, d=3, n=2, gamma=1.0)
    return PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.01), 1e4)


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


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("step_scale", [0.5, 1.0])
def test_march_trajectory_matches_the_plain_reference(seed, step_scale):
    # the march rounds as the plain reference does: the result is bitwise
    # the reference's, after the same number of evaluations. A last-bit
    # change in a step often washes out of the converged iterate, so
    # several instances are needed; each takes 18-66 evaluations, with
    # kept and rejected candidates and kept shortened ones. Scale 1 takes
    # the default step, 0.5 passes half of it explicitly
    rng = np.random.default_rng(seed)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 10.0)
    step = None if step_scale == 1.0 else step_scale * 0.9 / (
        np.abs(system.matrix.diagonal()).max() + prob.rho * (system.d - 1))
    expected, log = reference_march(prob, step=step)
    steps = len(log) - 1
    assert not all(e.kept for e in log)
    assert any(e.kept and e.shortened for e in log)
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


def test_long_march_matches_the_reference_through_a_thousand_rejections():
    # the march stays bitwise the reference's over a long, hard march: a
    # verify-style instance at c = 0.01, rho = 1e4, whose terms sit near
    # their kink, so 1011 of its 1386 evaluations are rejected and the
    # march gives up on a candidate and clears the memory 306 times
    prob = long_march_problem()
    expected, log = reference_march(prob)
    steps = len(log) - 1
    assert steps > 1300
    assert sum(not e.kept for e in log) > 1000
    assert sum(not e.kept and e.shortened == 2 for e in log) > 300
    u = pseudo_time_solve(prob, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, tol=1e-9, max_steps=steps)


def test_a_kept_shortened_candidate_keeps_the_memory(monkeypatch):
    # evaluation 57 of the seed-0 rho = 1e3 instance is a candidate fitted
    # to three differences, and it is rejected; evaluation 58, a tenth of
    # its extrapolation from the plain step, is kept, and the candidate
    # after it is fitted to four: the rejection cleared no memory. The
    # march's own fits see the reference's memory at every candidate
    fits = record_fits(monkeypatch)
    rng = np.random.default_rng(0)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 1e3)
    expected, log = reference_march(prob)
    assert (log[56].kept, log[56].shortened, log[56].memory) == (False, 0, 3)
    assert (log[57].kept, log[57].shortened) == (True, 1)
    assert (log[58].shortened, log[58].memory) == (0, 4)
    u = pseudo_time_solve(prob, tol=1e-9, max_steps=len(log))
    assert np.array_equal(u, expected)
    memory = [e.memory for e in log if e.memory and not e.shortened]
    assert [a.shape[1] for a, _, _, _ in fits] == memory


@pytest.mark.parametrize("max_steps", [63, 64, 65, 128])
def test_budget_counts_rejected_and_shortened_candidates(max_steps):
    # every evaluation counts against the budget, whatever becomes of its
    # candidate: the instance needs 148 evaluations, of which 63 and 65 are
    # rejected candidates and 64 and 128 shortened ones the march moves to.
    # The message carries the residual of the last evaluation the budget
    # allows, a rejected candidate's included
    rng = np.random.default_rng(0)
    system = random_affine_system(rng, d=3, n=2)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), 1e3)
    _, log = reference_march(prob, stop=max_steps)
    res, kept, _, _ = log[-1]
    assert kept == (max_steps in (64, 128))
    message = re.escape(f"residual {res:.3e} > 1.000e-09 after {max_steps} steps")
    with pytest.raises(MaxStepsExceeded, match=message):
        pseudo_time_solve(prob, tol=1e-9, max_steps=max_steps)


def test_restart_after_a_nan_residual_leaves_no_trace():
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
    assert before.any() and not after.any() and not np.isfinite(log[-1].residual)
    # the evaluation after the restart sees u = 0, so its residual is |b|
    with pytest.raises(MaxStepsExceeded, match=r"residual 2\.000e\+00 > .* after 99 steps"):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=99)
    steps = len(full) - 1
    u = pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps + 1)
    assert np.array_equal(u, expected)
    with pytest.raises(MaxStepsExceeded):
        pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=steps)


def record_fits(monkeypatch):
    """Make every least-squares fit of the march check that its inputs are
    finite, and return the list of (matrix, right-hand side, solution,
    rank) of the fits made from then on, copies all."""
    fits = []
    gelsd = oracle._gelsd

    def checked(a, b, *args):
        assert np.isfinite(a).all() and np.isfinite(b).all()
        solution = gelsd(a, b, *args)
        fits.append((a.copy(), b.copy(), solution[0].copy(), solution[2]))
        return solution

    monkeypatch.setattr(oracle, "_gelsd", checked)
    return fits


def test_the_fit_never_sees_a_non_finite_value(monkeypatch):
    # F(u) = Au - b with |b| near the largest float: evaluations 4 to 6 are
    # a candidate and its two shortenings, all rejected, so evaluation 7 is
    # a plain step; evaluation 8 lowers the residual, but G flips sign
    # across it and the difference of the two residuals overflows, so that
    # step is not remembered and evaluation 9, a plain step, is NaN and
    # restarts the march, which then converges. The NaN restart and the
    # divergent step 1e9 never put a non-finite value into a fit.
    fits = record_fits(monkeypatch)
    a = np.array([[1.9778601603692831, -1.6491531198311506],
                  [1.3722391641009521, 0.6449593561415905]])
    b = np.array([[5.686934006995462e307], [-2.776003050136637e307]])
    system = AffineSystem(sp.csr_matrix(a), b, gamma=0.1)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), 0.0)
    step = 0.9098806333502949
    with np.errstate(over="ignore", invalid="ignore"):
        _, log = reference_march(prob, step=step, tol=1e298, stop=9)
        expected, full = reference_march(prob, step=step, tol=1e298)
    assert [e.shortened for e in log[3:7]] == [0, 1, 2, 0] and log[6].memory == 0
    assert not any(e.kept for e in log[3:6])
    assert log[7].residual < log[6].residual and log[8].memory == 0
    assert not np.isfinite(log[8].residual)
    u = pseudo_time_solve(prob, step=step, tol=1e298, max_steps=len(full))
    assert np.array_equal(u, expected)
    assert sup_norm(u - np.linalg.solve(a, b)) <= 1e-9 * sup_norm(b)
    b = np.array([[0.0], [2.0]])
    prob = PenalizedProblem(identity_system(b), SwitchingCostMatrix.uniform(2, 5.0), rho=0.0)
    pseudo_time_solve(prob, step=1500.0, tol=1e-9, max_steps=5000)
    with pytest.raises(DivergenceDetected):
        pseudo_time_solve(prob, step=1e9, tol=1e-9, max_steps=2000)
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
    assert (3, 2) in [(a.shape[1], rank) for a, _, _, rank in fits]


def test_the_fit_agrees_with_numpy_lstsq(monkeypatch):
    # the march calls LAPACK's gelsd as np.linalg.lstsq(rcond=None) does,
    # and over the 977 fits of the long march and the benchmark pool the
    # two agree to 1e-12 relative per unit of the fit's condition number:
    # rounding-level agreement, also where numpy and scipy bundle different
    # LAPACK builds. A memory of six nearly parallel differences takes the
    # condition number to 7e15, where the bound tells little; most fits
    # are far better conditioned
    fits = record_fits(monkeypatch)
    for prob in [long_march_problem(), *oracle_pool()]:
        pseudo_time_solve(prob, tol=1e-9, max_steps=2000)
    assert len(fits) > 950
    for a, b, x, _ in fits:
        m, n = a.shape
        expected = np.linalg.lstsq(a, b[:m, 0], rcond=None)[0]
        bound = 1e-12 * np.linalg.cond(a) * np.abs(expected).max()
        assert np.abs(x[:n, 0] - expected).max() <= bound
        # the least-squares residual itself is well conditioned, so it is
        # checked against numpy's with no condition number in the bound
        g = b[:m, 0]
        residual = np.linalg.norm(a @ x[:n, 0] - g)
        assert abs(residual - np.linalg.norm(a @ expected - g)) <= 1e-12 * np.linalg.norm(g)


def test_a_fit_whose_svd_fails_raises(monkeypatch):
    # gelsd's info > 0 says its SVD did not converge; the march raises the
    # error np.linalg.lstsq raises for it
    def failing(a, b, *args):
        return b, np.zeros(min(a.shape)), 0, 1

    monkeypatch.setattr(oracle, "_gelsd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        pseudo_time_solve(tiny_problem(1e3), tol=1e-10, max_steps=100)


def test_acceleration_solves_the_benchmark_pool():
    # the plain march took 557,835 evaluations on this pool, up to about
    # 46k on one problem, and the accelerated one that gave up on every
    # rejected candidate 13,992, up to 2907; this one takes 1298, up to
    # 227. Each problem's budget is the reference's count, at most 300, so
    # the budgets bound the march's own total
    problems = list(oracle_pool())
    assert len(problems) == 72
    total = 0
    for prob in problems:
        expected, log = reference_march(prob, cap=300)
        u = pseudo_time_solve(prob, tol=1e-9, max_steps=len(log))
        assert np.array_equal(u, expected)
        assert sup_norm(u - active_set_enumerate(prob)) <= 1e-9
        total += len(log)
    assert total <= 1500


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
        marched = pseudo_time_solve(prob, tol=1e-9, max_steps=1000)
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


def counted_linalg(monkeypatch):
    """Make np.linalg.det and np.linalg.solve record their calls: the number
    of det calls and the stack size of each solve."""
    calls = {"det": 0, "solve": []}
    det, solve = np.linalg.det, np.linalg.solve

    def counted_det(a):
        calls["det"] += 1
        return det(a)

    def counted_solve(a, b):
        calls["solve"].append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "det", counted_det)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    return calls


def test_enumeration_factors_each_pattern_once(monkeypatch):
    # with no singular pattern, one stacked solve factors each pattern once
    # and nothing screens it: the 625 acyclic patterns of a d = 3, N = 2
    # pool problem, and the 6561 of d = 2, N = 8. A singular pattern makes
    # the solve raise; only then does det screen the stack, and the rest is
    # solved again
    calls = counted_linalg(monkeypatch)
    prob = next(p for p in oracle_pool() if (p.system.d, p.system.N, p.rho) == (3, 2, 1e3))
    active_set_enumerate(prob)
    assert calls == {"det": 0, "solve": [625]}
    system = random_affine_system(np.random.default_rng(64), d=2, n=8)
    active_set_enumerate(PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1), 5.0))
    assert calls == {"det": 0, "solve": [625, 6561]}
    system = AffineSystem(sp.csr_matrix(np.diag([-2.0, 1.0])), np.zeros((2, 1)), gamma=1.0)
    u = active_set_enumerate(PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 1.0), 2.0))
    assert np.array_equal(u, np.zeros((2, 1)))
    assert calls == {"det": 1, "solve": [625, 6561, 3, 2]}


def test_enumerate_at_the_term_cap_matches_newton():
    # d=2, n=8: 16 penalty terms, the cap, and 65536 patterns of which
    # 3^8 = 6561 are acyclic, the most of any shape the cap allows
    rng = np.random.default_rng(64)
    system = random_affine_system(rng, d=2, n=8)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1), rho=5.0)
    exact = active_set_enumerate(prob)
    newton, report = solve_penalized(prob, np.zeros((2, 8)))
    assert report.converged
    assert sup_norm(exact - newton) <= 1e-9


def has_cycle(pattern, d, n, node):
    """Whether the terms a pattern switches on at one node form a directed
    cycle over the regimes, by depth-first search."""
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    edges = {i: [j for k, (a, j) in enumerate(pairs) if a == i and pattern >> (k * n + node) & 1]
             for i in range(d)}
    state = [0] * d  # unvisited, on the current path, done

    def visit(v):
        state[v] = 1
        for w in edges[v]:
            if state[w] == 1 or (state[w] == 0 and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(d))


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_the_enumerated_patterns_are_exactly_the_acyclic_ones(d, n):
    bits = d * (d - 1) * n
    expected = [p for p in range(1 << bits)
                if not any(has_cycle(p, d, n, node) for node in range(n))]
    assert _acyclic_patterns(d, n).tolist() == expected


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


def plain_enumeration(prob):
    """The patterns, cyclic ones included, whose solution reproduces their
    own signs, each with its solution: every one of the 2^bits patterns'
    systems F(u) = rho * sum of its on-terms, solved one by one."""
    d, n = prob.system.d, prob.system.N
    a, b = prob.system.matrix.toarray(), prob.system.rhs
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    hits = []
    for pattern in range(1 << (len(pairs) * n)):
        m, rhs = a.copy(), b.copy()
        for (k, (i, j)), node in itertools.product(enumerate(pairs), range(n)):
            if pattern >> (k * n + node) & 1:
                # rho * (u^j - c - u^i) moves to the left of row (i, node)
                m[i * n + node, j * n + node] -= prob.rho
                m[i * n + node, i * n + node] += prob.rho
                rhs[i * n + node] -= prob.rho * prob.costs.costs[i, j]
        try:
            u = np.linalg.solve(m, rhs).reshape(d, n)
        except np.linalg.LinAlgError:
            continue
        signs = [u[j, node] - prob.costs.costs[i, j] - u[i, node] > 0.0
                 for (i, j), node in itertools.product(pairs, range(n))]
        if signs == [bool(pattern >> t & 1) for t in range(len(signs))]:
            hits.append((pattern, u))
    return hits


@settings(max_examples=20, deadline=None, derandomize=True)
@given(instances)
def test_no_cyclic_pattern_is_consistent(case):
    # the skipped patterns hold no solution: over all of them, the one
    # consistent pattern is acyclic and its solution the enumeration's
    prob, _ = random_problem(case)
    hits = plain_enumeration(prob)
    assert len(hits) == 1
    (pattern, u), = hits
    assert pattern in _acyclic_patterns(case["d"], case["n"])
    assert sup_norm(u - active_set_enumerate(prob)) <= 1e-12


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
