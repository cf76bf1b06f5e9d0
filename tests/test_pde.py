"""Finite-difference assembly of the switching benchmark."""
import numpy as np
import pytest
import scipy.sparse as sp

from qvipen.core import sup_norm
from qvipen.pde import (
    MU_DRIFT,
    R,
    SIGMA_VOL,
    PdeParams,
    RewardFunction,
    assemble,
    grid,
    probe_index,
    reward_values,
)
from qvipen.testing import monotonicity_slack


@pytest.fixture(scope="module")
def two_regime():
    return PdeParams(d=2, reward=RewardFunction.two_regime())


@pytest.fixture(scope="module")
def three_regime():
    return PdeParams(d=3, reward=RewardFunction.three_regime())


def test_reward_two_regime_halfopen():
    reward = RewardFunction.two_regime()
    assert reward(0.76) == pytest.approx(0.48)
    assert reward(0.74) == 0.0
    assert reward(0.75) == 0.0  # left endpoint excluded
    assert reward(1.0) == 0.0  # slope hits zero at the right endpoint
    assert reward(1.01) == 0.0


def test_reward_three_regime_pieces():
    reward = RewardFunction.three_regime()
    assert reward(0.5) == 0.0  # closed right end of the first piece
    assert reward(0.3) == pytest.approx(0.2)
    assert reward(0.9) == pytest.approx(0.4)
    assert reward(1.2) == pytest.approx(0.3)
    assert reward(1.6) == pytest.approx(0.1)
    assert reward(1.8) == 0.0
    assert reward(-0.5) == 0.0


def test_reward_custom_roundtrip():
    reward = RewardFunction([(0.0, 1.0, 2.0, 0.0)])
    assert reward(0.5) == 1.0
    assert reward(0.0) == 0.0


def test_grid_and_probe(two_regime):
    x = grid(two_regime)
    assert two_regime.h == pytest.approx(0.02)
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.98)
    assert len(x) == 100
    assert probe_index(two_regime, 0.5) == 25
    assert probe_index(two_regime, 1.0) == 50
    with pytest.raises(ValueError):
        probe_index(two_regime, 0.505)
    with pytest.raises(ValueError):
        probe_index(two_regime, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PdeParams(d=1, reward=RewardFunction.two_regime())
    with pytest.raises(ValueError):
        PdeParams(d=2, reward=RewardFunction.two_regime(), N=1)


def test_params_reject_non_integer_sizes():
    # N = 50.5 would otherwise build a 51-node mesh whose Dirichlet ghost
    # sits at x = 51 * 2/50.5, not at 2
    with pytest.raises(ValueError, match="N must be an integer"):
        PdeParams(d=2, reward=RewardFunction.two_regime(), N=50.5)
    with pytest.raises(ValueError, match="d must be an integer"):
        PdeParams(d=2.0, reward=RewardFunction.two_regime())
    assert PdeParams(d=np.int64(2), reward=RewardFunction.two_regime(), N=np.int64(50)).h == 0.04


def test_norm_f0(two_regime, three_regime):
    # reward maxima on the grid: 2(1-0.76) and 0.5 at x=1
    assert assemble(two_regime).norm_F0 == pytest.approx(0.48)
    assert assemble(three_regime).norm_F0 == pytest.approx(0.5)


def test_zero_intensity_regime_is_bidiagonal(two_regime):
    # nu=0 kills the diffusion but not the r*x drift, so the block couples
    # forward only; interior row sums collapse to exactly r
    system = assemble(two_regime)
    n = two_regime.N
    block = system.matrix.toarray()[:n, :n]
    assert np.all(block[np.tril_indices(n, k=-1)] == 0.0)
    x = grid(two_regime)
    assert np.allclose(np.diag(block), R * x / two_regime.h + R)
    assert np.allclose(block.sum(axis=1)[:-1], R)
    # x=0 decouples entirely, making the reward the solution value there
    u = np.zeros((2, 100))
    u[0, 0] = reward_values(two_regime)[0] / R
    assert system.evaluate(u)[0, 0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 100])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_assembled_csr_is_the_block_diagonal_of_three_diagonals(d, n):
    # the reference builds each regime's tridiagonal block with sp.diags and
    # stacks them with sp.block_diag, whose dia -> coo conversion drops the
    # explicit zeros: regime 0's lower diagonal and every upper entry at x = 0
    params = PdeParams(d=d, reward=RewardFunction.three_regime(), N=n)
    x, h = grid(params), params.h
    blocks = []
    for i in range(d):
        nu = i / (d - 1)
        a = 0.5 * (SIGMA_VOL * nu * x) ** 2
        b = (R + nu * (MU_DRIFT - R)) * x
        diagonals = [-a[1:] / h**2, 2.0 * a / h**2 + b / h + R, -a[:-1] / h**2 - b[:-1] / h]
        blocks.append(sp.diags(diagonals, [-1, 0, 1]))
    expected = sp.block_diag(blocks, format="csr")
    matrix = assemble(params).matrix
    for name in ("data", "indices", "indptr"):
        got, want = getattr(matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_rows_are_monotone(three_regime):
    m = assemble(three_regime).matrix.toarray()
    off = m - np.diag(np.diag(m))
    assert np.all(off <= 0.0)
    assert np.all(np.diag(m) > 0.0)
    # row sums stay above the discount rate (Dirichlet ghost only adds mass)
    assert np.all(m.sum(axis=1) >= R - 1e-12)


def test_first_row_decouples(three_regime):
    # both coefficient functions vanish at x=0
    m = assemble(three_regime).matrix.toarray()
    n = three_regime.N
    for i in range(3):
        row = m[i * n]
        assert row[i * n] == pytest.approx(R)
        row = row.copy()
        row[i * n] = 0.0
        assert np.all(row == 0.0)


@pytest.mark.parametrize("case", ["two", "three"])
def test_monotonicity_probes(case, two_regime, three_regime):
    params = two_regime if case == "two" else three_regime
    system = assemble(params)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.uniform(-25.0, 25.0, (params.d, params.N))
        v = rng.uniform(-25.0, 25.0, (params.d, params.N))
        assert monotonicity_slack(system, u, v) >= -1e-10


def test_translation_growth(two_regime):
    # cancellation noise grows with the shift (matrix entries reach ~361), so
    # the roundoff allowance scales with it
    system = assemble(two_regime)
    rng = np.random.default_rng(29)
    u = rng.uniform(-1.0, 1.0, (2, 100))
    for shift in (0.1, 1.0, 10.0):
        growth = system.evaluate(u + shift) - system.evaluate(u)
        assert np.all(growth >= system.gamma * shift - 1e-12 * max(1.0, shift))


def test_exact_affinity(three_regime):
    system = assemble(three_regime)
    rng = np.random.default_rng(31)
    u = rng.uniform(-25.0, 25.0, (3, 100))
    v = rng.uniform(-25.0, 25.0, (3, 100))
    mid = system.evaluate(0.5 * u + 0.5 * v)
    assert sup_norm(mid - 0.5 * (system.evaluate(u) + system.evaluate(v))) <= 1e-12


def test_slant_row_sum_is_lipschitz_bound(two_regime):
    system = assemble(two_regime)
    m = system.matrix
    lip = np.max(np.abs(m).sum(axis=1))
    rng = np.random.default_rng(37)
    for _ in range(20):
        u = rng.uniform(-25.0, 25.0, (2, 100))
        v = rng.uniform(-25.0, 25.0, (2, 100))
        assert sup_norm(system.evaluate(u) - system.evaluate(v)) <= lip * sup_norm(u - v) + 1e-12


def test_many_regimes_assemble():
    params = PdeParams(d=5, reward=RewardFunction.three_regime(), N=10)
    system = assemble(params)
    assert (system.d, system.N) == (5, 10)
    assert system.gamma == R
