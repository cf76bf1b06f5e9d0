"""Node-major band slants: builder equivalence and band solve.

Each slant the Newton drivers build is checked against a dense matrix
assembled here, entry by entry, from the definition of that slant.
"""
import numpy as np
import pytest
from scipy.linalg import block_diag, get_blas_funcs, get_lapack_funcs

from qvipen import newton, regularize
from qvipen.core import (
    AffineSystem,
    NodeBand,
    PenalizedProblem,
    SwitchingCostMatrix,
    _penalized,
    penalized_residual,
    sup_norm,
)
from qvipen.newton import (
    SingularSlant,
    _transposed,
    linear_solve,
    slant_band,
    solve_obstacle,
    solve_penalized,
    solve_root,
)
from qvipen.pde import PdeParams, RewardFunction, assemble
from qvipen.testing import random_affine_system

CASES = ("all", "none", "ties")


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


def _assert_slant(band, reference):
    """A slant band matches the dense reference."""
    assert isinstance(band, NodeBand)
    assert np.abs(band.tocsr().toarray() - reference).max() <= 1e-12 * np.abs(reference).max()


def _dense_base(system):
    return system.matrix.toarray()


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


def _captured_linearization(monkeypatch, solve):
    """The linearization a solve hands to the Newton loop, and its system,
    captured without solving."""
    seen = {}

    def fake_newton(system, linearize, initial, cfg=None):
        seen["problem"] = system, linearize
        return np.asarray(initial), None

    for module in (newton, regularize):
        monkeypatch.setattr(module, "_newton", fake_newton)
    solve()
    monkeypatch.undo()
    return seen["problem"]


def _captured_slant(monkeypatch, solve):
    """The slant, as a function of the iterate, of the problem a solve hands
    to the Newton loop, captured without solving."""
    system, linearize = _captured_linearization(monkeypatch, solve)
    return lambda v: slant_band(system, *linearize(v)[1:])


def test_affine_band_is_the_node_major_matrix(system):
    d, n = system.d, system.N
    band = system.band
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
    assert system.band is band


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
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), rho)
    _assert_slant(_captured_slant(monkeypatch, lambda: solve_penalized(prob, u))(u), ref)


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

    _assert_slant(_captured_slant(monkeypatch, lambda: solve_obstacle(system, psi, u))(u), ref)


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

    sweep = lambda: regularize.apply_T(anchor, system, costs, epsilon)  # noqa: E731
    _assert_slant(_captured_slant(monkeypatch, sweep)(v), ref)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("case", CASES)
def test_frozen_penalty_slant_matches_definition(system, case, epsilon, monkeypatch):
    d, n = system.d, system.N
    frozen = _quarters(d, n)
    cost = {"all": 0.0, "none": 10.0, "ties": 0.25}[case]
    v = {"all": frozen - 1.0, "none": frozen, "ties": frozen}[case]
    rho = 8.0
    ref = _dense_base(system)
    residual = system.evaluate(v)
    ties = active = 0
    for i in range(d):
        for l in range(n):
            for j in range(d):
                arg = frozen[j, l] - cost - v[i, l] - epsilon * (v[i, l] - frozen[i, l])
                ties += j != i and arg == 0.0
                if j != i and arg > 0.0:
                    active += 1
                    residual[i, l] -= rho * arg
                    ref[i * n + l, i * n + l] += rho * (1.0 + epsilon)
    assert ties > 0 if case == "ties" else active == {"all": d * (d - 1) * n, "none": 0}[case]
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), rho)
    if epsilon:
        sweep = lambda: regularize.apply_T_rho(frozen, prob, epsilon)  # noqa: E731
    else:
        sweep = lambda: regularize.apply_Q_rho(frozen, prob)  # noqa: E731
    got = _captured_linearization(monkeypatch, sweep)[1](v)
    assert np.abs(got[0] - residual).max() <= 1e-12 * np.abs(residual).max()
    _assert_slant(slant_band(system, *got[1:]), ref)


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
    band = slant_band(system, coupling=_penalized(prob)(u)[2])
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
    band = slant_band(system)
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


def test_band_from_matrix_rejects_a_shape_d_cannot_split():
    with pytest.raises(ValueError):
        NodeBand.from_matrix(np.eye(3), 2)
    with pytest.raises(ValueError):
        NodeBand.from_matrix(np.ones((4, 2)), 2)


@pytest.mark.parametrize("d", [0, True, 2.5])
def test_band_from_matrix_rejects_a_bad_d(d):
    # 0 divided by zero, True was read as 1 until numpy refused it, and 2.5
    # was blamed on the matrix's shape
    with pytest.raises(ValueError, match="d must be an integer"):
        NodeBand.from_matrix(np.eye(4), d)


# the band of the 4 x 4 tridiagonal matrix with 3 on the diagonal and -1
# beside it, one regime: kl = ku = 1
BAND = np.array([[0.0, -1.0, -1.0, -1.0], [3.0, 3.0, 3.0, 3.0], [-1.0, -1.0, -1.0, 0.0]])


def _band_with_diagonal(value):
    """BAND with ``value`` as its diagonal entry in column 2."""
    ab = BAND.copy()
    ab[1, 2] = value
    return ab


@pytest.mark.parametrize("fields, message", [
    ((1, 1, 1, np.vstack([BAND, np.full((2, 4), 7.0)])), "ab must be"),
    ((1, 1, 1, BAND[:2]), "ab must be"),
    ((1, -1, 1, BAND), "kl must be"),
    ((1, 1, 0.5, BAND), "ku must be"),
    ((0, 1, 1, BAND), "d must be"),
    ((2, 1, 1, np.ones((3, 5))), "ab must be"),
    ((1, 1, 1, BAND[1]), "ab must be"),
    ((1, 1, 1, _band_with_diagonal(np.nan)), "ab contains non-finite entries$"),
    ((1, 1, 1, _band_with_diagonal(np.inf)), "ab contains non-finite entries$"),
], ids=["extra-rows", "missing-row", "negative-kl", "fractional-ku", "zero-d", "odd-columns",
        "one-dimensional", "nan", "inf"])
def test_node_band_checks_its_own_fields(fields, message):
    # a hand-built band was taken as given: two extra rows were dropped and
    # the solve answered, a missing row raised IndexError, kl = -1 reached
    # LAPACK as an illegal value, a column count that d does not divide
    # failed in a reshape, a 1-D ab raised IndexError in tocsr, a NaN was
    # blamed on the solve ("linear solve produced non-finite entries"), and
    # an inf on the diagonal solved without an error
    with pytest.raises(ValueError, match=f"^{message}"):
        band = NodeBand(*fields)
        linear_solve(band, np.ones(4))
        band.tocsr()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_transposed_band_is_the_band_of_the_transpose(d):
    # a random node-major band with more diagonals below than above: its
    # transpose's band has the widths swapped and is a new array
    n = 6
    rng = np.random.default_rng(70 + d)
    node_major = np.triu(np.tril(rng.normal(size=(d * n, d * n)), d - 1), -2 * d)
    # regime-major index i*N + l is node-major index l*d + i
    position = np.arange(d * n).reshape(n, d).T.ravel()
    matrix = node_major[np.ix_(position, position)]
    band, ref = NodeBand.from_matrix(matrix, d), NodeBand.from_matrix(matrix.T, d)
    kl, ku = band.kl, band.ku
    assert (kl, ku) == (2 * d, d - 1) and (ref.kl, ref.ku) == (ku, kl)
    transposed = _transposed(band.ab, kl, ku)
    assert transposed.flags.f_contiguous and not np.shares_memory(transposed, band.ab)
    assert transposed.tobytes(order="F") == ref.ab.tobytes(order="F")
    assert _transposed(transposed, ku, kl).tobytes(order="F") == band.ab.tobytes(order="F")
    top = _transposed(band.ab, kl, ku, top=2)
    assert not top[:2].any() and top[2:].tobytes(order="F") == ref.ab.tobytes(order="F")


@pytest.mark.parametrize("d", [2, 3])
def test_keep_masked_slant_with_unequal_widths(d):
    # lower-bidiagonal regimes put entries at (l+1, l) only, so the band has
    # kl = d below the diagonal and ku = d - 1 above: a row mask padded on
    # the wrong side would mask every row one place off
    n = 5
    rng = np.random.default_rng(d)
    blocks = [np.diag(rng.uniform(2, 3, n)) + np.diag(rng.uniform(-1, 0, n - 1), -1)
              for _ in range(d)]
    system = AffineSystem(block_diag(*blocks), np.ones((d, n)), gamma=1.0)
    assert (system.band.kl, system.band.ku) == (d, d - 1)
    keep = rng.random((d, n)) < 0.5
    coupling = rng.normal(size=(d, d, n))
    expected = keep.ravel()[:, None] * system.matrix.toarray()
    for i in range(d):
        for j in range(d):
            expected[i * n + np.arange(n), j * n + np.arange(n)] += coupling[i, j]
    assert np.array_equal(slant_band(system, keep, coupling).tocsr().toarray(), expected)


def test_band_solve_leaves_the_cached_band_intact():
    # coupling only the two components of each node gives kl == ku == 1, the
    # three-regime mesh kl == ku == 3; LAPACK factors and solves in place
    # when asked to, and neither cached band nor right-hand side may change
    d, n = 2, 4
    matrix = 3.0 * np.eye(d * n)
    matrix[np.arange(n), n + np.arange(n)] = matrix[n + np.arange(n), np.arange(n)] = -1.0
    system = AffineSystem(matrix, np.ones((d, n)), gamma=1.0)
    band = system.band
    assert (band.kl, band.ku) == (1, 1)
    assert not band.ab.flags.writeable
    before = band.ab.copy()
    rhs = np.ones(d * n)
    x = linear_solve(band, rhs)
    assert np.array_equal(band.ab, before)
    assert rhs.tobytes() == np.ones(d * n).tobytes()
    assert sup_norm(system.matrix @ x - 1.0) <= 1e-15

    mesh = assemble(PdeParams(d=3, reward=RewardFunction.three_regime()))
    band = mesh.band
    assert (band.kl, band.ku) == (3, 3)
    assert not band.ab.flags.writeable
    before = band.ab.copy()
    op = mesh.matrix
    rhs = np.ones(op.shape[0])
    x = linear_solve(band, rhs)
    assert np.array_equal(band.ab, before)
    assert rhs.tobytes() == np.ones(op.shape[0]).tobytes()
    norm_op = abs(op).sum(axis=1).max()
    assert sup_norm(op @ x - 1.0) <= 1e-14 * (norm_op * sup_norm(x) + 1.0)
    # a band built by hand, C- or Fortran-ordered, solves the same
    for ab in (np.asfortranarray(before), before):
        assert linear_solve(NodeBand(3, 3, 3, ab), rhs).tobytes() == x.tobytes()
        assert np.array_equal(ab, band.ab)


def _transposed_lu(slant, d):
    """scipy's gbtrf on the band of the transpose of ``slant``, a
    regime-major sparse matrix, built from the matrix alone."""
    ref = NodeBand.from_matrix(slant.T, d)
    ab = np.zeros((2 * ref.kl + ref.ku + 1, ref.ab.shape[1]), order="F")
    ab[ref.kl:] = ref.ab
    lu, ipiv, info = get_lapack_funcs("gbtrf", dtype=np.float64)(ab, ref.kl, ref.ku)
    assert info == 0
    return ref, lu, ipiv


@pytest.mark.parametrize("d", [2, 3])
def test_band_solve_is_bitwise_lapack_band_lu(d):
    # the reference factors the transpose, rebuilt from the slant's matrix,
    # with no row interchanges, and solves by the same two tbsv calls: U^T,
    # then the unit lower factor's transpose
    prob, u = _pde_penalized(d)
    residual, _, coupling = _penalized(prob)(u)
    band = slant_band(prob.system, coupling=coupling)
    assert band.kl == band.ku == d
    ref, lu, ipiv = _transposed_lu(band.tocsr(), d)
    assert np.array_equal(ipiv, np.arange(ipiv.size))
    tbsv = get_blas_funcs("tbsv", dtype=np.float64)
    rng = np.random.default_rng(5)
    for rhs in (-residual.ravel(), rng.normal(size=d * prob.system.N)):
        x = linear_solve(band, rhs)
        y = tbsv(ref.kl + ref.ku, lu, rhs.reshape(d, -1).T.ravel(), trans=1)
        node_major = tbsv(ref.kl, lu[ref.kl + ref.ku:], y, lower=1, trans=1, diag=1)
        assert x.tobytes() == node_major.reshape(-1, d).T.ravel().tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_band_solve_with_row_interchanges_is_gbtrs(d, monkeypatch):
    # a random band whose off-diagonal entries outweigh its diagonal: its
    # transpose's factorization interchanges rows, and the solve on its
    # factors is gbtrs(trans=1) with their pivots
    n = 40
    rng = np.random.default_rng(11 + d)
    blocks = [np.diag(rng.uniform(-1, 1, n)) + np.diag(rng.uniform(1, 4, n - 1), 1)
              + np.diag(rng.uniform(-4, -1, n - 1), -1) for _ in range(d)]
    matrix = block_diag(*blocks) + np.kron(rng.uniform(-2, 2, (d, d)), np.eye(n))
    system = AffineSystem(matrix, np.ones((d, n)), gamma=1.0)
    ref, lu, ipiv = _transposed_lu(system.matrix, d)
    assert not np.array_equal(ipiv, np.arange(ipiv.size))
    gbtrs = get_lapack_funcs("gbtrs", dtype=np.float64)
    calls = []
    monkeypatch.setattr(newton, "_gbtrs", lambda *a, **k: calls.append(1) or gbtrs(*a, **k))
    op = system.matrix
    norm_op = abs(op).sum(axis=1).max()
    for rhs in rng.normal(size=(3, d * n)):
        x = linear_solve(system.band, rhs)
        node_major, info = gbtrs(lu, ref.kl, ref.ku, rhs.reshape(d, -1).T.ravel(), ipiv, trans=1)
        assert info == 0
        assert x.tobytes() == node_major.reshape(-1, d).T.ravel().tobytes()
        assert sup_norm(op @ x - rhs) <= 1e-14 * (norm_op * sup_norm(x) + sup_norm(rhs))
    assert len(calls) == 3


def test_hoisted_constants_are_read_only():
    costs = SwitchingCostMatrix.uniform(3, 0.25)
    assert costs._cost_tensor is costs._cost_tensor
    constant = costs._cost_tensor
    assert not constant.flags.writeable
    with pytest.raises(ValueError):
        constant[0, 0, 0] = 1


def test_problems_sharing_a_cost_matrix_match_definition(system, monkeypatch):
    # asymmetric costs, one matrix behind both weights; the second pass runs
    # with every per-problem constant already built
    d, n = system.d, system.N
    costs = SwitchingCostMatrix(0.0625 * (np.add.outer(np.arange(d), 2 * np.arange(d)) % 3))
    u = _quarters(d, n) + 0.01 * np.arange(d)[:, None]
    for rho in (64.0, 8.0, 64.0, 8.0):
        residual, slant, active = _penalized_reference(system, u, costs.costs, rho)
        assert 0 < active < d * (d - 1) * n
        prob = PenalizedProblem(system, costs, rho)
        assert np.abs(penalized_residual(u, prob) - residual).max() <= 1e-12 * np.abs(residual).max()

        solve = lambda: solve_penalized(prob, u)  # noqa: E731
        _assert_slant(_captured_slant(monkeypatch, solve)(u), slant)
