"""Newton driver, linear solve, and solver-vs-oracle agreement."""
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from qvipen import ExperimentConfig, newton, regularize, run_table
from qvipen.core import (
    AffineSystem,
    NodeBand,
    PenalizedProblem,
    SwitchingCostMatrix,
    _obstacles,
    _penalized,
    penalized_residual,
    qvi_residual,
    sup_norm,
)
from qvipen.newton import (
    MaxIterExceeded,
    NewtonConfig,
    SingularSlant,
    _min_rows,
    _slant_band,
    _solve_qvi,
    linear_solve,
    solve_obstacle,
    solve_penalized,
    solve_root,
)
from qvipen.oracle import active_set_enumerate, pseudo_time_solve
from qvipen.pde import PdeParams, RewardFunction, assemble, probe_index
from qvipen.testing import random_affine_system


@pytest.fixture(scope="module")
def two_regime():
    params = PdeParams(d=2, reward=RewardFunction.two_regime())
    system = assemble(params)
    root, _ = solve_root(system, np.zeros((2, 100)))
    return params, system, root


@pytest.fixture(scope="module")
def three_regime():
    params = PdeParams(d=3, reward=RewardFunction.three_regime())
    system = assemble(params)
    root, _ = solve_root(system, np.zeros((3, 100)))
    return params, system, root


def identity_system(b):
    b = np.asarray(b, dtype=float)
    return AffineSystem(sp.eye(b.size, format="csr"), b, gamma=1.0)


def test_config_validation():
    cfg = NewtonConfig()
    assert (cfg.tol, cfg.residual_tol, cfg.max_iter) == (1e-9, 1e-8, 100)
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        NewtonConfig(max_iter=1e2)


@pytest.mark.parametrize("field, value, message", [
    ("tol", "1e-9", "tol must be a positive finite number, got '1e-9'"),
    ("tol", True, "tol must be a positive finite number, got True"),
    ("tol", np.nan, "tol must be a positive finite number, got nan"),
    ("residual_tol", np.inf, "residual_tol must be a positive finite number, got inf"),
    ("residual_tol", None, "residual_tol must be a positive finite number, got None"),
    ("residual_tol", -1.0, "residual_tol must be a positive finite number, got -1.0"),
    ("max_iter", True, "max_iter must be an integer, got True"),
    ("max_iter", "5", "max_iter must be an integer, got '5'"),
])
def test_config_names_the_field_it_rejects(field, value, message):
    # a string tol failed with "'>' not supported between instances", a
    # bool was taken as 0 or 1, and an infinite tolerance was accepted
    with pytest.raises(ValueError) as info:
        NewtonConfig(**{field: value})
    assert str(info.value) == message


def test_config_takes_numpy_scalars():
    cfg = NewtonConfig(tol=np.float64(1e-10), residual_tol=np.float32(1e-7), max_iter=np.int64(5))
    assert cfg.max_iter == 5


def test_solve_root_affine_is_one_exact_step(two_regime):
    # the first step lands on the root; the second merely confirms it
    _, system, _ = two_regime
    rng = np.random.default_rng(59)
    u, report = solve_root(system, rng.uniform(-5.0, 5.0, (2, 100)))
    assert sup_norm(system.evaluate(u)) <= 1e-10
    assert report.residuals[1] <= 1e-10
    assert report.iterations <= 2
    assert report.converged


def test_solve_root_identity_lands_exactly():
    system = identity_system(np.zeros((2, 3)))
    u, report = solve_root(system, np.full((2, 3), 7.0))
    assert np.all(u == 0.0)
    assert report.residuals[1] == 0.0


def test_solve_penalized_two_regime_cell(two_regime):
    params, system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.5), rho=1e3)
    u, report = solve_penalized(prob, root)
    # published reference value for this configuration
    assert u[0, probe_index(params, 0.5)] == pytest.approx(3.37521, abs=1e-5)
    assert report.converged
    assert report.residuals[-1] <= 1e-8
    assert 3 <= report.iterations <= 10
    assert len(report.increments) == report.iterations
    assert report.elapsed_seconds > 0.0


def test_solve_penalized_three_regime_cell(three_regime):
    params, system, root = three_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.25), rho=4e3)
    u, report = solve_penalized(prob, root)
    # published reference value for this configuration
    assert u[0, probe_index(params, 1.0)] == pytest.approx(6.849917, abs=1e-5)
    assert 6 <= report.iterations <= 24


def test_huge_cost_removes_penalty_dependence():
    # costs above twice the solution bound leave every obstacle slack, so the
    # penalty weight cannot matter
    system = identity_system(np.array([[0.0], [2.0]]))
    costs = SwitchingCostMatrix.uniform(2, 5.0)  # bound is 2, threshold is 4
    solutions = []
    for rho in (0.0, 1e3, 1e6):
        u, _ = solve_penalized(PenalizedProblem(system, costs, rho), np.zeros((2, 1)))
        solutions.append(u)
    assert sup_norm(solutions[0] - solutions[1]) <= 1e-9
    assert sup_norm(solutions[1] - solutions[2]) <= 1e-9


def test_solve_penalized_at_zero_weight_is_the_root_solve():
    # at rho = 0 the penalty evaluates to zero and adds a zero coupling, so
    # the solve reduces to F(u) = 0 even from a start that activates a
    # penalty argument
    system = identity_system(np.zeros((2, 1)))
    costs = SwitchingCostMatrix.uniform(2, 1.0)
    start = np.array([[0.0], [3.0]])
    u, report = solve_penalized(PenalizedProblem(system, costs, 0.0), start)
    root, root_report = solve_root(system, start)
    assert sup_norm(u) <= 1e-12
    assert np.array_equal(u, root) and report.iterations == root_report.iterations


def test_newton_globalizes_from_below(three_regime):
    # the penalized residual is concave, so after the first step every
    # iterate is a subsolution and the chain increases monotonically to the
    # root; the residual sup-norm itself bounces while active sets shuffle,
    # so componentwise sign and iterate order are the properties to test
    _, system, root = three_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 1.0 / 4096.0), rho=64e3)
    u = root.copy()
    chain = []
    for _ in range(30):
        g, _, coupling = _penalized(prob)(u)
        delta = linear_solve(_slant_band(system, coupling=coupling), -g.ravel()).reshape(u.shape)
        u = u + delta
        chain.append(u.copy())
        if sup_norm(delta) / max(sup_norm(u), 1.0) < 1e-9:
            break
    assert sup_norm(penalized_residual(u, prob)) <= 1e-8
    for k, v in enumerate(chain):
        assert penalized_residual(v, prob).max() <= 1e-8
        if k >= 1:
            assert np.all(v >= chain[k - 1] - 1e-10)


def test_solutions_increase_with_rho(two_regime):
    _, system, root = two_regime
    costs = SwitchingCostMatrix.uniform(2, 0.125)
    previous = None
    for rho in (1e3, 2e3, 4e3):
        u, _ = solve_penalized(PenalizedProblem(system, costs, rho), root)
        if previous is not None:
            assert np.all(previous <= u + 1e-8)
        previous = u


def test_solutions_decrease_with_cost(two_regime):
    _, system, root = two_regime
    previous = None
    for cost in (0.5, 0.25, 0.125):
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, cost), rho=16e3)
        u, _ = solve_penalized(prob, root)
        if previous is not None:
            assert np.all(previous <= u + 1e-8)
        previous = u


def test_obstacle_never_binding_gives_root():
    system = identity_system(np.array([[1.0, -1.0], [0.5, 2.0]]))
    u, report = solve_obstacle(system, np.full((2, 2), -1e6), np.zeros((2, 2)))
    assert sup_norm(u - [[1.0, -1.0], [0.5, 2.0]]) <= 1e-9
    assert report.converged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_obstacle_names_a_non_finite_psi(bad):
    # NaN and +inf failed as a SingularSlant "linear solve produced
    # non-finite entries", which blamed the slant; -inf, which never binds,
    # is rejected with them, as a non-finite start is
    system = identity_system(np.zeros((2, 2)))
    psi = np.zeros((2, 2))
    psi[1, 0] = bad
    with pytest.raises(ValueError, match="psi contains non-finite entries"):
        solve_obstacle(system, psi, np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 2, 1)])
def test_obstacle_rejects_a_psi_of_the_wrong_shape(shape):
    system = identity_system(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="expected|mismatch"):
        solve_obstacle(system, np.zeros(shape), np.zeros((2, 2)))


def test_obstacle_hand_case():
    # obstacle from the zero field with unit cost sits at -1 per regime; the
    # unconstrained root (0, 2) already clears it
    system = identity_system(np.array([[0.0], [2.0]]))
    psi = np.full((2, 1), -1.0)
    u, _ = solve_obstacle(system, psi, np.zeros((2, 1)))
    assert np.allclose(u, [[0.0], [2.0]], atol=1e-12)


def test_obstacle_binding_clips_to_psi():
    # root (0, 2) violates psi = (1, -5): regime 0 is lifted onto the obstacle
    system = identity_system(np.array([[0.0], [2.0]]))
    psi = np.array([[1.0], [-5.0]])
    u, _ = solve_obstacle(system, psi, np.zeros((2, 1)))
    assert np.allclose(u, [[1.0], [2.0]], atol=1e-12)


def test_obstacle_tie_selects_f_row():
    system = identity_system(np.zeros((2, 1)))
    u = np.zeros((2, 1))
    # at u = 0 both branches evaluate to 0; the slant must be F's
    _, keep, coupling = _min_rows(system.evaluate(u), u, np.eye(2)[:, :, None])
    slant = _slant_band(system, keep, coupling).tocsr()
    assert (slant != system.matrix).nnz == 0


def test_qvi_solve_is_exact_and_dominates_the_penalized_solution():
    # policy iteration on min(F(u), u - M u) itself: from the root it lands
    # on the QVI solution to roundoff, and u^rho approaches it from below
    rng = np.random.default_rng(5)
    for _ in range(20):
        d, n = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        cost = float(rng.uniform(0.05, 0.5))
        system = random_affine_system(rng, d=d, n=n, gamma=1.0)
        root, _ = solve_root(system, np.zeros((d, n)))
        u, report = _solve_qvi(system, cost, root)
        assert report.converged
        assert sup_norm(qvi_residual(u, system, cost)) <= 1e-8
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), 1e3)
        u_rho, _ = solve_penalized(prob, root)
        assert (u_rho - u).max() <= 1e-12


def test_qvi_solve_from_a_table_cell_takes_few_iterations(three_regime):
    _, system, root = three_regime
    costs = SwitchingCostMatrix.uniform(3, 1 / 64)
    u_rho, _ = solve_penalized(PenalizedProblem(system, costs, 32e3), root)
    u, report = _solve_qvi(system, costs, u_rho)
    assert report.iterations <= 3
    assert sup_norm(qvi_residual(u, system, costs)) <= 1e-12
    assert (u_rho - u).max() <= 1e-12


def test_linear_solve_identity():
    rhs = np.array([3.0, -1.0, 4.0])
    assert np.array_equal(linear_solve(NodeBand.from_matrix(sp.eye(3), 1), rhs), rhs)


def test_linear_solve_matches_dense_elimination():
    poisson = sp.diags([-np.ones(4), 2.0 * np.ones(5), -np.ones(4)], [-1, 0, 1])
    rhs = np.ones(5)
    expected = np.linalg.solve(poisson.toarray(), rhs)
    assert sup_norm(linear_solve(NodeBand.from_matrix(poisson, 1), rhs) - expected) <= 1e-12


def test_linear_solve_backward_error(two_regime):
    _, system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.125), rho=32e3)
    u, _ = solve_penalized(prob, root)
    band = _slant_band(system, coupling=_penalized(prob)(u)[2])
    op = band.tocsr()
    rng = np.random.default_rng(61)
    for _ in range(5):
        rhs = rng.normal(size=op.shape[0])
        x = linear_solve(band, rhs)
        assert sup_norm(op @ x - rhs) <= 1e-10 * (1.0 + sup_norm(rhs))


@pytest.mark.parametrize("length", [2, 6])
def test_linear_solve_rejects_a_rhs_of_the_wrong_length(length):
    # a 2-entry rhs used to be broadcast over the node-major buffer, solving
    # for [1, 1, 2, 2]; a 6-entry one raised numpy's broadcast error
    op = NodeBand.from_matrix(sp.diags([1.0, 2.0, 4.0, 8.0]), 2)
    with pytest.raises(ValueError, match="rhs"):
        linear_solve(op, np.arange(1.0, length + 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_solve_names_a_non_finite_rhs(bad):
    # a non-finite rhs was solved, and its non-finite x blamed on the slant
    # as a SingularSlant
    rhs = np.ones(4)
    rhs[2] = bad
    with pytest.raises(ValueError, match="^rhs contains non-finite entries$"):
        linear_solve(NodeBand.from_matrix(sp.diags([1.0, 2.0, 4.0, 8.0]), 2), rhs)


def test_linear_solve_singular():
    with pytest.raises(SingularSlant):
        linear_solve(NodeBand.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]), 1), np.ones(2))
    # the zero pivot at regime-major index i*N + l is named as regime i, node l
    diagonal = np.ones(6)
    diagonal[2] = 0.0
    with pytest.raises(SingularSlant) as info:
        linear_solve(NodeBand.from_matrix(np.diag(diagonal), 2), np.ones(6))
    assert (info.value.regime, info.value.node) == (0, 2)


def test_iteration_cap_carries_diagnostics(two_regime):
    _, system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.5), rho=1e3)
    with pytest.raises(MaxIterExceeded) as info:
        solve_penalized(prob, root, NewtonConfig(max_iter=1))
    assert info.value.report.iterations == 1
    assert not info.value.report.converged
    assert info.value.iterate.shape == (2, 100)


def test_start_is_checked_before_the_first_step(two_regime):
    _, system, root = two_regime
    start = root.copy()
    start[1, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite") as info:
        solve_root(system, start)
    assert info.value.__context__ is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        newton._newton(system, lambda u: (system.evaluate(u), None, None), root[:, :50])


def _singular_after_one_step():
    """SingularSlant from the second iterate: F(u) = u - 1 on a (2, 2) field,
    with every row of the slant dropped once u has moved off zero."""
    system = identity_system(np.ones((2, 2)))

    def linearize(u):
        keep = np.zeros(u.shape, bool) if u.any() else None
        return system.evaluate(u), keep, None

    with pytest.raises(SingularSlant) as info:
        newton._newton(system, linearize, np.zeros((2, 2)))
    assert info.value.report.iterations == 1
    return info.value


@pytest.mark.parametrize("path", ["converged", "max_iter", "singular"])
def test_report_counts_agree_on_every_exit_path(two_regime, path):
    _, system, root = two_regime
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.5), rho=1e3)
    if path == "converged":
        _, report = solve_penalized(prob, root)
        assert report.converged
    elif path == "max_iter":
        with pytest.raises(MaxIterExceeded) as info:
            solve_penalized(prob, root, NewtonConfig(max_iter=2))
        report = info.value.report
        assert report.iterations == 2
        assert f"residual {report.residuals[-1]:.3e}" in str(info.value)
    else:
        report = _singular_after_one_step().report
    assert report.converged == (path == "converged")
    assert report.iterations == len(report.increments)
    assert len(report.residuals) == report.iterations + 1


NEWTON_SOLVES = {
    "solve_root": lambda system, costs, prob, root: solve_root(system, 0.0 * root),
    "solve_penalized": lambda system, costs, prob, root: solve_penalized(prob, root),
    "solve_obstacle": lambda system, costs, prob, root: solve_obstacle(
        system, _obstacles(root, costs)[0], root),
    "solve_qvi": lambda system, costs, prob, root: _solve_qvi(system, costs, root),
    "apply_Q": lambda system, costs, prob, root: regularize.apply_Q(root, system, costs),
    "apply_T": lambda system, costs, prob, root: regularize.apply_T(root, system, costs, 1.0),
    "apply_Q_rho": lambda system, costs, prob, root: regularize.apply_Q_rho(root, prob),
    "apply_T_rho": lambda system, costs, prob, root: regularize.apply_T_rho(root, prob, 1.0),
}


@pytest.mark.parametrize("name", sorted(NEWTON_SOLVES))
def test_each_newton_solve_evaluates_F_once_per_iterate(three_regime, name, monkeypatch):
    # from the root at c = 1/16, rho = 16e3 every solve but the root solve
    # takes ten or more steps; each step is one linear solve
    _, system, root = three_regime
    costs = SwitchingCostMatrix.uniform(3, 1 / 16)
    prob = PenalizedProblem(system, costs, 16e3)
    counts = {"evaluate": 0, "steps": 0}
    # the loop evaluates F through the unchecked kernel behind evaluate
    evaluate, step = system._apply, newton._Workspace.step

    def counted_evaluate(u):
        counts["evaluate"] += 1
        return evaluate(u)

    def counted_step(workspace, g, keep, coupling):
        counts["steps"] += 1
        return step(workspace, g, keep, coupling)

    monkeypatch.setattr(system, "_apply", counted_evaluate)
    monkeypatch.setattr(newton._Workspace, "step", counted_step)
    NEWTON_SOLVES[name](system, costs, prob, root)
    assert counts["steps"] >= 2
    assert counts["evaluate"] == counts["steps"] + 1


def _reference_newton(system, linearize, initial, cfg):
    """The Newton loop with a fresh slant and a fresh factorization at every
    step, through _slant_band and the public linear_solve."""
    u = np.array(initial, dtype=float)
    g, keep, coupling = linearize(u)
    increments, residuals = [], [sup_norm(g)]
    for _ in range(cfg.max_iter):
        delta = linear_solve(_slant_band(system, keep, coupling), -g.ravel()).reshape(u.shape)
        u = u + delta
        g, keep, coupling = linearize(u)
        residuals.append(sup_norm(g))
        increments.append(sup_norm(delta) / max(sup_norm(u), 1.0))
        if increments[-1] < cfg.tol and residuals[-1] <= cfg.residual_tol:
            return u, increments, residuals
    raise AssertionError("the reference loop did not converge")


def _assert_newton_solves_match_the_reference(monkeypatch, solve):
    """Run ``solve`` and check each Newton solve it makes, sweeps' inner ones
    included, bitwise against :func:`_reference_newton`."""
    real = newton._newton
    solves = []

    def recording(system, linearize, initial, cfg=None):
        u, report = real(system, linearize, initial, cfg)
        solves.append((system, linearize, np.array(initial, dtype=float), cfg, u, report))
        return u, report

    for module in (newton, regularize):
        monkeypatch.setattr(module, "_newton", recording)
    solve()
    monkeypatch.undo()
    assert solves
    for system, linearize, initial, cfg, u, report in solves:
        expected, increments, residuals = _reference_newton(
            system, linearize, initial, cfg or NewtonConfig())
        assert np.array_equal(u, expected)
        assert report.increments == increments and report.residuals == residuals


def _sweep_chain(system, costs, prob, root):
    """Ten sweeps of each kind, then a strict supersolution, on one system:
    each solve starts on the factors the solve before it left."""
    for step in (lambda u: regularize.apply_Q(u, system, costs),
                 lambda u: regularize.apply_T(u, system, costs, 1.0),
                 lambda u: regularize.apply_Q_rho(u, prob),
                 lambda u: regularize.apply_T_rho(u, prob, 1.0)):
        regularize.iterate_to_fixed_point(step, root, max_sweeps=10)
    regularize.strict_supersolution(system, costs, costs.min_cost / 2)


@pytest.mark.parametrize("name", sorted(NEWTON_SOLVES) + ["sweep_chain"])
@pytest.mark.parametrize("case", ["two_regime", "three_regime"])
def test_newton_solves_equal_a_fresh_factorization_per_step(request, monkeypatch, case, name):
    # held factors are reused only for a slant equal to the one they factor,
    # within a solve and across the solves on one system, and a back-solve on
    # them gives the bytes a fresh factorization ending in the same calls would
    _, system, root = request.getfixturevalue(case)
    costs = SwitchingCostMatrix.uniform(system.d, 1 / 16)
    prob = PenalizedProblem(system, costs, 16e3)
    solve = _sweep_chain if name == "sweep_chain" else NEWTON_SOLVES[name]
    _assert_newton_solves_match_the_reference(monkeypatch, lambda: solve(system, costs, prob, root))


def test_newton_solves_on_random_instances_equal_a_fresh_factorization_per_step(monkeypatch):
    rng = np.random.default_rng(83)
    for _ in range(8):
        d, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        system = random_affine_system(rng, d=d, n=n, gamma=1.0)
        costs = SwitchingCostMatrix.uniform(d, float(rng.uniform(0.05, 0.5)))
        prob = PenalizedProblem(system, costs, float(rng.uniform(1.0, 1e3)))
        root, _ = solve_root(system, np.zeros((d, n)))
        for name in sorted(NEWTON_SOLVES):
            _assert_newton_solves_match_the_reference(
                monkeypatch, lambda: NEWTON_SOLVES[name](system, costs, prob, root))


def _lapack_calls(monkeypatch):
    """One label per linear solve that the Newton drivers make from here on:
    "gbtrf" for a step that factors its slant and solves on the new factors,
    "tbsv" for a back-solve on held factors with no row interchanges, and
    "gbtrs" for one on factors with some."""
    calls = []
    factored = [False]

    def spy(name):
        real = getattr(newton, name)

        def counted(*args, **kwargs):
            if name == "_gbtrf":
                calls.append("gbtrf")
                factored[0] = True
            elif not kwargs.get("lower"):  # the first call of a back-solve
                if not factored[0]:
                    calls.append(name[1:])
                factored[0] = False
            return real(*args, **kwargs)

        monkeypatch.setattr(newton, name, counted)

    for name in ("_gbtrf", "_tbsv", "_gbtrs"):
        spy(name)
    return calls


def test_root_solve_factors_once(monkeypatch):
    # the slant of F is A at every iterate: the confirming step back-solves,
    # and so does every step of a later solve on the same system
    system = assemble(PdeParams(d=2, reward=RewardFunction.two_regime()))
    calls = _lapack_calls(monkeypatch)
    for expected in (["gbtrf", "tbsv"], ["tbsv", "tbsv"]):
        calls.clear()
        _, report = solve_root(system, np.zeros((2, 100)))
        assert report.iterations == 2
        assert calls == expected


@pytest.mark.parametrize("name", sorted(n for n in NEWTON_SOLVES if n != "solve_root"))
def test_a_converged_solve_back_solves_its_confirming_step(three_regime, monkeypatch, name):
    # policy iteration stops when the policy repeats, so the last step
    # solves with the slant of the step before it
    _, system, root = three_regime
    costs = SwitchingCostMatrix.uniform(3, 1 / 16)
    prob = PenalizedProblem(system, costs, 16e3)
    calls = _lapack_calls(monkeypatch)
    NEWTON_SOLVES[name](system, costs, prob, root)
    assert len(calls) >= 2
    assert calls[0] == "gbtrf" and calls[-1] == "tbsv"


def test_a_slant_is_factored_again_only_when_it_changes(monkeypatch):
    # a residual that never vanishes, on slants I, 2I, 2I (an equal but new
    # coupling array), I and I again
    system = identity_system(np.zeros((2, 2)))
    block = lambda: np.eye(2)[:, :, None] * np.ones(2)  # noqa: E731
    couplings = iter([None, block(), block(), None, None, None])

    def linearize(u):
        return np.ones((2, 2)), None, next(couplings)

    calls = _lapack_calls(monkeypatch)
    with pytest.raises(MaxIterExceeded):
        newton._newton(system, linearize, np.zeros((2, 2)), NewtonConfig(max_iter=5))
    assert calls == ["gbtrf", "gbtrf", "tbsv", "gbtrf", "tbsv"]


def test_table_and_sweep_factorizations_interchange_no_rows(two_regime, three_regime, monkeypatch):
    # every slant of these monotone problems is row-diagonally dominant, so
    # its transpose factors without row interchanges, and every solve on its
    # factors takes the tbsv pair: both tables at N = 100, and a sweep chain
    # on each case
    pivots = []
    real = newton._gbtrf

    def recorded(*args, **kwargs):
        lu, ipiv, info = real(*args, **kwargs)
        pivots.append(np.array_equal(ipiv, np.arange(ipiv.size)))
        return lu, ipiv, info

    monkeypatch.setattr(newton, "_gbtrf", recorded)
    for case in ("two-regime", "three-regime"):
        assert all(cell.converged for cell in run_table(ExperimentConfig(case=case)).cells)
    tables = len(pivots)
    for _, system, root in (two_regime, three_regime):
        costs = SwitchingCostMatrix.uniform(system.d, 1 / 16)
        _sweep_chain(system, costs, PenalizedProblem(system, costs, 16e3), root)
    assert tables > 500 and len(pivots) > tables
    assert all(pivots)


def test_a_failed_factorization_is_never_held():
    # the zero pivot's factors must not serve the next solve on the system
    system = identity_system(np.ones((2, 3)))
    keep = np.ones((2, 3), bool)
    keep[1, 2] = False

    for _ in range(2):
        with pytest.raises(SingularSlant) as info:
            newton._newton(system, lambda u: (system.evaluate(u), keep, None), np.zeros((2, 3)))
        assert (info.value.regime, info.value.node) == (1, 2)


def test_solves_on_one_system_from_two_threads_equal_the_serial_ones():
    # each solve borrows the system's workspace or, finding it taken by the
    # other thread's solve, works in its own
    system = assemble(PdeParams(d=3, reward=RewardFunction.three_regime()))
    root, _ = solve_root(system, np.zeros((3, 100)))
    probs = [PenalizedProblem(system, SwitchingCostMatrix.uniform(3, cost), rho)
             for cost in (1 / 16, 1 / 64) for rho in (4e3, 16e3)]

    def solve_all():
        return [solve_penalized(prob, root)[0] for prob in probs]

    serial = solve_all()
    results = [None, None]

    def run(k):
        results[k] = [solve_all() for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs in results:
        assert runs is not None and len(runs) == 3
        for solutions in runs:
            assert all(np.array_equal(u, v) for u, v in zip(solutions, serial))


def _overflowing_system():
    """F(u) = diag(1e-308, 1) u - (10, 1): the first Newton step from zero
    is (1e309, 1), which overflows to inf."""
    return AffineSystem(sp.diags([1e-308, 1.0]).tocsr(), [[10.0], [1.0]], gamma=1e-308)


@pytest.mark.parametrize("name", ["solve_root", "solve_penalized", "solve_obstacle", "solve_qvi"])
def test_a_non_finite_step_raises_a_singular_slant(name):
    system = _overflowing_system()
    start = np.zeros((2, 1))
    costs = SwitchingCostMatrix.uniform(2, 1.0)
    with pytest.raises(SingularSlant, match="^linear solve produced non-finite entries$") as info:
        NEWTON_SOLVES[name](system, costs, PenalizedProblem(system, costs, 1.0), start)
    assert np.array_equal(info.value.iterate, start)
    assert info.value.report.iterations == 0 and not info.value.report.converged
    assert info.value.regime is None and info.value.node is None
    with pytest.raises(SingularSlant, match="^linear solve produced non-finite entries$"):
        linear_solve(system.band, np.array([10.0, 1.0]))


def _tiny_problem():
    """d = 2, N = 1: F(u) = u - (0, 2) at zero cost and rho = 1."""
    return PenalizedProblem(identity_system([[0.0], [2.0]]),
                            SwitchingCostMatrix.uniform(2, 0.0), 1.0)


def _capped_iterate(system, costs, prob, root):
    with pytest.raises(MaxIterExceeded) as info:
        solve_penalized(prob, root, NewtonConfig(max_iter=1))
    return info.value.iterate


SOLVER_OUTPUTS = {
    **{name: lambda *args, solve=solve: solve(*args)[0]
       for name, solve in NEWTON_SOLVES.items() if name.startswith("solve_")},
    **{name: solve for name, solve in NEWTON_SOLVES.items() if name.startswith("apply_")},
    "iterate_to_fixed_point": lambda system, costs, prob, root: regularize.iterate_to_fixed_point(
        lambda v: regularize.apply_Q(v, system, costs), root, max_sweeps=2)[0],
    "strict_supersolution": lambda system, costs, prob, root: regularize.strict_supersolution(
        system, costs, costs.min_cost / 2),
    "pseudo_time_solve": lambda *_: pseudo_time_solve(_tiny_problem(), tol=1e-10),
    "active_set_enumerate": lambda *_: active_set_enumerate(_tiny_problem()),
    "MaxIterExceeded.iterate": _capped_iterate,
    "SingularSlant.iterate": lambda *_: _singular_after_one_step().iterate,
}


@pytest.mark.parametrize("name", sorted(SOLVER_OUTPUTS))
def test_solvers_return_plain_arrays(three_regime, name):
    _, system, root = three_regime
    costs = SwitchingCostMatrix.uniform(3, 1 / 16)
    out = SOLVER_OUTPUTS[name](system, costs, PenalizedProblem(system, costs, 16e3), root)
    assert type(out) is np.ndarray and out.ndim == 2


def test_newton_agrees_with_enumeration():
    rng = np.random.default_rng(67)
    for _ in range(5):
        system = random_affine_system(rng, d=2, n=2)
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1),
                                rho=float(rng.uniform(0.5, 50.0)))
        exact = active_set_enumerate(prob)
        u, _ = solve_penalized(prob, np.zeros((2, 2)))
        assert sup_norm(u - exact) <= 1e-9


def test_newton_agrees_with_marching_on_reduced_grid():
    # the plain march needed about a million steps here, the accelerated
    # one about 30k residual evaluations; this is the one cross-check of the
    # march on a real discretization. Its error is bounded by residual/gamma
    # with gamma = 0.02, so meeting the 1e-7 agreement target requires
    # marching down to 2e-9.
    params = PdeParams(d=2, reward=RewardFunction.two_regime(), N=20)
    system = assemble(params)
    root, _ = solve_root(system, np.zeros((2, 20)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.125), rho=1e3)
    u, _ = solve_penalized(prob, root)
    marched = pseudo_time_solve(prob, tol=2e-9, max_steps=50_000)
    assert sup_norm(u - marched) <= 1e-7
