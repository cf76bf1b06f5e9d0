"""Node-major band slants: builder equivalence, band solve, derived bands.

Each slant the Newton drivers build is checked against a dense matrix
assembled here, entry by entry, from the definition of that slant.
"""
import numpy as np
import pytest
from scipy.linalg import solve_banded

from qvipen import newton, regularize
from qvipen.core import (
    AffineSystem,
    MonotoneSystem,
    NodeBand,
    PenalizedProblem,
    ShiftedSystem,
    SwitchingCostMatrix,
    _coupling_index,
    _diagonal_block,
    _penalized,
    penalized_residual,
    slant_band,
    sup_norm,
)
from qvipen.newton import (
    ObstacleProblem,
    SingularSlant,
    linear_solve,
    solve_obstacle,
    solve_penalized,
    solve_root,
)
from qvipen.pde import PdeParams, RewardFunction, assemble
from qvipen.testing import random_affine_system

CASES = ("all", "none", "ties")


class NoBand(MonotoneSystem):
    """An AffineSystem behind the bare interface: its band is derived from
    ``slant_at`` on every call."""

    def __init__(self, base):
        self.base = base

    d = property(lambda self: self.base.d)
    N = property(lambda self: self.base.N)
    gamma = property(lambda self: self.base.gamma)

    def evaluate(self, u):
        return self.base.evaluate(u)

    def slant_at(self, u):
        return self.base.slant_at(u)


def _systems():
    rng = np.random.default_rng(41)
    out = {}
    for n in (100, 2):
        out[f"pde-d2-N{n}"] = assemble(PdeParams(d=2, reward=RewardFunction.two_regime(), N=n))
        out[f"pde-d3-N{n}"] = assemble(PdeParams(d=3, reward=RewardFunction.three_regime(), N=n))
    for d in (2, 3):
        for n in (1, 2):
            out[f"random-d{d}-n{n}"] = random_affine_system(rng, d=d, n=n)
    return out


SYSTEMS = _systems()


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]


def _signs(d, n):
    # -1, 0 and 1 in a pattern that puts a 0 on every system tested
    return (np.arange(d)[:, None] + np.arange(n)) % 3 - 1.0


def _quarters(d, n):
    # multiples of 1/4 whose neighbouring regimes differ by exactly 1/4, so
    # every difference and cost offset below is exact and some hit zero
    return 0.25 * ((np.arange(d)[:, None] + np.arange(n)) % 3)


def _assert_slant(system, build, reference):
    """``build(system)`` matches the dense reference, with the system's own
    band and with one derived from its slant."""
    scale = np.abs(reference).max()
    for s in (system, NoBand(system)):
        band = build(s)
        assert isinstance(band, NodeBand)
        assert np.abs(band.tocsr().toarray() - reference).max() <= 1e-12 * scale


def _dense_base(system):
    return system.slant_at(None).toarray()


def _penalized_reference(system, u, costs, rho):
    """Dense residual and slant of the degree-1 penalized problem at u, term
    by term from the definition, and the number of active terms."""
    d, n = system.d, system.N
    residual = system.evaluate(u).copy()
    slant = _dense_base(system)
    active = 0
    for i in range(d):
        for j in range(d):
            for l in range(n):
                arg = u[j, l] - costs[i, j] - u[i, l]
                if j != i and arg > 0.0:
                    active += 1
                    residual[i, l] -= rho * arg
                    slant[i * n + l, i * n + l] += rho
                    slant[i * n + l, j * n + l] -= rho
    return residual, slant, active


def _pde_penalized(d):
    """A converged three- or two-regime cell at N = 100 and its problem."""
    reward = RewardFunction.two_regime() if d == 2 else RewardFunction.three_regime()
    system = assemble(PdeParams(d=d, reward=reward))
    root, _ = solve_root(system, np.zeros((d, system.N)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, 1 / 64), 32e3)
    u, report = solve_penalized(prob, root)
    assert report.converged
    return prob, u


def _captured_slant(monkeypatch, solve):
    """The slant, as a function of the iterate, of the problem a solve hands
    to the Newton loop, captured without solving."""
    seen = {}

    def fake_newton(system, linearize, initial, cfg=None):
        seen["problem"] = system, linearize
        return np.asarray(initial), None

    for module in (newton, regularize):
        monkeypatch.setattr(module, "_newton", fake_newton)
    solve()
    monkeypatch.undo()
    system, linearize = seen["problem"]
    return lambda v: slant_band(system, v, *linearize(v)[1:])


def test_affine_band_is_the_node_major_matrix(system):
    d, n = system.d, system.N
    band = system.band_at(None)
    if n == 100:
        assert band.kl == band.ku == d
    order = np.arange(d * n).reshape(d, n).T.ravel()  # i*N + l at l*d + i
    node_major = _dense_base(system)[np.ix_(order, order)]
    rebuilt = np.zeros_like(node_major)
    for r in range(band.kl + band.ku + 1):
        for q in range(d * n):
            p = q + r - band.ku
            if 0 <= p < d * n:
                rebuilt[p, q] = band.ab[r, q]
            else:
                assert band.ab[r, q] == 0.0
    assert np.array_equal(rebuilt, node_major)
    assert ShiftedSystem(system, 0.1).band_at(None) is band


@pytest.mark.parametrize("case", CASES)
def test_penalized_slant_matches_definition(system, case, monkeypatch):
    # "all": with c = 0 and distinct components, one term of every pair is
    # active; both terms of a pair can never be
    d, n = system.d, system.N
    u = _quarters(d, n)
    cost = {"all": 0.0, "none": 10.0, "ties": 0.25}[case]
    if case == "all":
        u = u + 0.01 * np.arange(d)[:, None]
    rho = 64.0
    ref = _dense_base(system)
    ties = active = 0
    for i in range(d):
        for j in range(d):
            for l in range(n):
                arg = u[j, l] - cost - u[i, l]
                ties += j != i and arg == 0.0
                if j != i and arg > 0.0:
                    active += 1
                    ref[i * n + l, i * n + l] += rho
                    ref[i * n + l, j * n + l] -= rho
    pairs = d * (d - 1) // 2 * n
    assert ties > 0 if case == "ties" else active == {"all": pairs, "none": 0}[case]
    costs = SwitchingCostMatrix.uniform(d, cost)

    def build(s):
        prob = PenalizedProblem(s, costs, rho)
        return _captured_slant(monkeypatch, lambda: solve_penalized(prob, u))(u)

    _assert_slant(system, build, ref)


@pytest.mark.parametrize("case", CASES)
def test_obstacle_slant_matches_definition(system, case, monkeypatch):
    # at u = 0, F(0) = -b and the constraint branch is -psi exactly
    d, n = system.d, system.N
    b = -system.evaluate(np.zeros((d, n)))
    shift = {"all": 1.0, "none": -1.0, "ties": _signs(d, n)}[case]
    psi = b + shift
    u = np.zeros((d, n))
    f_val = system.evaluate(u).ravel()
    constraint = (u - psi).ravel()
    ref = _dense_base(system)
    for r in range(d * n):
        if not f_val[r] <= constraint[r]:
            ref[r] = 0.0
            ref[r, r] = 1.0
    if case == "ties":
        assert np.any(f_val == constraint)

    def build(s):
        solve = lambda: solve_obstacle(ObstacleProblem(s, psi), u)  # noqa: E731
        return _captured_slant(monkeypatch, solve)(u)

    _assert_slant(system, build, ref)


@pytest.mark.parametrize("case", CASES)
def test_marching_slant_matches_definition(system, case, monkeypatch):
    d, n = system.d, system.N
    epsilon = 1.0
    costs = SwitchingCostMatrix.uniform(d, 0.25)
    if case == "ties":
        # v = 0 and c = 0 make the constraint -anchor and F(0) = -b, exactly
        costs = SwitchingCostMatrix.uniform(d, 0.0)
        v = np.zeros((d, n))
        anchor = -system.evaluate(v) + _signs(d, n)
    else:
        v = _quarters(d, n)
        anchor = v + (1e6 if case == "all" else -1e6)
    c = costs.costs
    f_val = system.evaluate(v)
    ref = _dense_base(system)
    ties = switched = 0
    for i in range(d):
        for l in range(n):
            best = max(range(d), key=lambda j: (j != i, v[j, l] - c[i, j], -j))
            constraint = v[i, l] - (v[best, l] - c[i, best]) + epsilon * (v[i, l] - anchor[i, l])
            ties += f_val[i, l] == constraint
            if not f_val[i, l] <= constraint:
                switched += 1
                r = i * n + l
                ref[r] = 0.0
                ref[r, r] = 1.0 + epsilon
                ref[r, best * n + l] = -1.0
    assert ties > 0 if case == "ties" else switched == {"all": d * n, "none": 0}[case]

    def build(s):
        slant = _captured_slant(monkeypatch, lambda: regularize.apply_T(anchor, s, costs, epsilon))
        return slant(v)

    _assert_slant(system, build, ref)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("case", CASES)
def test_frozen_penalty_slant_matches_definition(system, case, epsilon, monkeypatch):
    d, n = system.d, system.N
    frozen = _quarters(d, n)
    cost = {"all": 0.0, "none": 10.0, "ties": 0.25}[case]
    v = {"all": frozen - 1.0, "none": frozen, "ties": frozen}[case]
    rho = 8.0
    ref = _dense_base(system)
    ties = active = 0
    for i in range(d):
        for l in range(n):
            for j in range(d):
                arg = frozen[j, l] - cost - v[i, l] - epsilon * (v[i, l] - frozen[i, l])
                ties += j != i and arg == 0.0
                if j != i and arg > 0.0:
                    active += 1
                    ref[i * n + l, i * n + l] += rho * (1.0 + epsilon)
    assert ties > 0 if case == "ties" else active == {"all": d * (d - 1) * n, "none": 0}[case]
    costs = SwitchingCostMatrix.uniform(d, cost)

    def build(s):
        prob = PenalizedProblem(s, costs, rho)
        if epsilon:
            sweep = lambda: regularize.apply_T_rho(frozen, prob, epsilon)  # noqa: E731
        else:
            sweep = lambda: regularize.apply_Q_rho(frozen, prob)  # noqa: E731
        return _captured_slant(monkeypatch, sweep)(v)

    _assert_slant(system, build, ref)


def test_band_solve_backward_error_at_converged_iterate():
    # no iterative refinement: the Newton system meets the absolute bound, and
    # random right-hand sides (|x| up to ~100 against slant entries of 4e6,
    # so op @ x itself rounds at ~1e-9) meet a normwise one near roundoff
    params = PdeParams(d=3, reward=RewardFunction.three_regime(), N=10_000)
    system = assemble(params)
    root, _ = solve_root(system, np.zeros((3, params.N)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 1 / 64), 32e3)
    u, report = solve_penalized(prob, root)
    assert report.converged
    band = slant_band(system, u, coupling=_penalized(u, prob)[1])
    op = band.tocsr()
    norm_op = abs(op).sum(axis=1).max()
    rng = np.random.default_rng(71)
    newton_rhs = -penalized_residual(u, prob).ravel()
    for rhs in [newton_rhs] + [rng.normal(size=op.shape[0]) for _ in range(3)]:
        x = linear_solve(band, rhs)
        backward = sup_norm(op @ x - rhs)
        assert backward <= 1e-14 * (norm_op * sup_norm(x) + sup_norm(rhs))
        if rhs is newton_rhs:
            assert backward <= 1e-10 * (1.0 + sup_norm(rhs))


@pytest.mark.parametrize("d", [2, 3])
def test_singular_band_raises_with_iterate_and_report(d):
    # one zero row: exactly singular, whatever the band width (kl = ku = d - 1)
    n = 3
    diagonal = np.arange(1.0, d * n + 1.0)
    diagonal[n + 1] = 0.0
    system = AffineSystem(np.diag(diagonal), np.ones((d, n)), gamma=1.0)
    band = slant_band(system, None)
    assert isinstance(band, NodeBand)
    with pytest.raises(SingularSlant) as info:
        linear_solve(band, np.ones(d * n))
    # the zeroed entry is regime-major index n + 1: regime 1 at node 1
    assert (info.value.regime, info.value.node) == (1, 1)
    assert "regime 1, node 1" in str(info.value)
    with pytest.raises(SingularSlant) as info:
        solve_root(system, np.zeros((d, n)))
    assert (info.value.regime, info.value.node) == (1, 1)
    assert info.value.iterate.shape == (d, n)
    assert info.value.report.iterations == 0
    assert not info.value.report.converged


def test_system_without_a_cached_band_solves_through_a_derived_one():
    system = assemble(PdeParams(d=3, reward=RewardFunction.three_regime()))
    root, _ = solve_root(system, np.zeros((3, 100)))
    costs = SwitchingCostMatrix.uniform(3, 1 / 64)
    cached, cached_report = solve_penalized(PenalizedProblem(system, costs, 32e3), root)
    derived, derived_report = solve_penalized(PenalizedProblem(NoBand(system), costs, 32e3), root)
    assert derived_report.iterations == cached_report.iterations
    assert np.array_equal(derived, cached)


def test_band_from_matrix_rejects_a_shape_d_cannot_split():
    with pytest.raises(ValueError):
        NodeBand.from_matrix(np.eye(3), 2)
    with pytest.raises(ValueError):
        NodeBand.from_matrix(np.ones((4, 2)), 2)


def test_band_solve_leaves_the_cached_band_intact():
    # coupling only the two components of each node gives kl == ku == 1, the
    # three-regime mesh kl == ku == 3; LAPACK factors in place when asked to,
    # and neither cached band may change
    d, n = 2, 4
    matrix = 3.0 * np.eye(d * n)
    matrix[np.arange(n), n + np.arange(n)] = matrix[n + np.arange(n), np.arange(n)] = -1.0
    system = AffineSystem(matrix, np.ones((d, n)), gamma=1.0)
    band = system.band_at(None)
    assert (band.kl, band.ku) == (1, 1)
    assert not band.ab.flags.writeable
    before = band.ab.copy()
    x = linear_solve(band, np.ones(d * n))
    assert np.array_equal(band.ab, before)
    assert sup_norm(system.slant_at(None) @ x - 1.0) <= 1e-15

    mesh = assemble(PdeParams(d=3, reward=RewardFunction.three_regime()))
    band = mesh.band_at(None)
    assert (band.kl, band.ku) == (3, 3)
    assert not band.ab.flags.writeable
    before = band.ab.copy()
    op = mesh.slant_at(None)
    x = linear_solve(band, np.ones(op.shape[0]))
    assert np.array_equal(band.ab, before)
    norm_op = abs(op).sum(axis=1).max()
    assert sup_norm(op @ x - 1.0) <= 1e-14 * (norm_op * sup_norm(x) + 1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_band_solve_is_bitwise_lapack_band_lu(d):
    # scipy's solve_banded, which calls the same gbsv for kl = ku = d > 1, is
    # the reference: the direct call must give the same bytes
    prob, u = _pde_penalized(d)
    residual, coupling = _penalized(u, prob)
    band = slant_band(prob.system, u, coupling=coupling)
    assert band.kl == band.ku == d
    rng = np.random.default_rng(5)
    for rhs in (-residual.ravel(), rng.normal(size=d * prob.system.N)):
        x = linear_solve(band, rhs)
        node_major = solve_banded((band.kl, band.ku), band.ab, rhs.reshape(d, -1).T.ravel())
        assert x.tobytes() == node_major.reshape(-1, d).T.ravel().tobytes()


def test_hoisted_constants_are_read_only():
    costs = SwitchingCostMatrix.uniform(3, 0.25)
    assert costs._cost_tensor is costs._cost_tensor
    for constant in (costs._cost_tensor, _diagonal_block(3), _coupling_index(3, 100, 3)):
        assert not constant.flags.writeable
        with pytest.raises(ValueError):
            constant[(0,) * constant.ndim] = 1


def test_problems_sharing_a_cost_matrix_match_definition(system, monkeypatch):
    # asymmetric costs, one matrix behind both weights and both band sources;
    # the second pass runs with every per-problem constant already built
    d, n = system.d, system.N
    costs = SwitchingCostMatrix(0.0625 * (np.add.outer(np.arange(d), 2 * np.arange(d)) % 3))
    u = _quarters(d, n) + 0.01 * np.arange(d)[:, None]
    for rho in (64.0, 8.0, 64.0, 8.0):
        residual, slant, active = _penalized_reference(system, u, costs.costs, rho)
        assert 0 < active < d * (d - 1) * n
        prob = PenalizedProblem(system, costs, rho)
        assert np.abs(penalized_residual(u, prob) - residual).max() <= 1e-12 * np.abs(residual).max()

        def build(s):
            solve = lambda: solve_penalized(PenalizedProblem(s, costs, rho), u)  # noqa: E731
            return _captured_slant(monkeypatch, solve)(u)

        _assert_slant(system, build, slant)
