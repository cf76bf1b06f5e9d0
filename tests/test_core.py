"""Residual algebra and domain-type contracts."""
import numpy as np
import pytest
import scipy.sparse as sp

from qvipen.core import (
    AffineSystem,
    PenalizedProblem,
    SwitchingCostMatrix,
    a_priori_bound,
    _obstacles,
    as_costs,
    penalized_residual,
    penalized_slant,
    qvi_residual,
    sup_norm,
)
from qvipen.oracle import active_set_enumerate
from qvipen.oracle import _residual as oracle_residual
from qvipen.testing import random_affine_system


def identity_system(b):
    """F(u) = u - b, monotone with constant 1."""
    b = np.asarray(b, dtype=float)
    return AffineSystem(sp.eye(b.size, format="csr"), b, gamma=1.0)


def test_sup_norm():
    assert sup_norm([[-3.0, 2.0], [1.0, -4.0]]) == 4.0
    assert sup_norm(np.zeros((2, 3))) == 0.0
    assert sup_norm(np.array([])) == 0.0


def test_cost_matrix():
    c = SwitchingCostMatrix.uniform(3, 0.5)
    assert c.d == 3
    assert c.min_cost == 0.5
    assert c.is_positive
    assert np.all(np.diag(c.costs) == 0.0)
    # diagonal entries are ignored, not validated
    c2 = SwitchingCostMatrix([[7.0, 1.0], [2.0, -7.0]])
    assert c2.costs[0, 0] == 0.0 and c2.costs[1, 1] == 0.0
    with pytest.raises(ValueError):
        SwitchingCostMatrix([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        SwitchingCostMatrix(np.zeros((2, 3)))
    assert not SwitchingCostMatrix.uniform(2, 0.0).is_positive


def test_as_costs():
    c = as_costs(0.25, 2)
    assert c.costs[0, 1] == 0.25
    assert as_costs(c, 2) is c
    m = as_costs([[0.0, 1.0], [2.0, 0.0]], 2)
    assert m.costs[1, 0] == 2.0
    with pytest.raises(ValueError):
        as_costs(c, 3)


def penalty_term(y, rho):
    """pi(y) as penalized_residual applies it, one argument per node.

    On F(u) = u with zero costs, u^0 = 0 and u^1 = y make the regime-0
    residual -rho * pi(y); the regime-1 argument -y is never read here.
    """
    y = np.asarray(y, dtype=float)
    system = identity_system(np.zeros((2, y.size)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), rho=rho)
    return -penalized_residual(np.stack([np.zeros_like(y), y]), prob)[0] / rho


def test_penalty_function():
    # the one penalty is pi(y) = max(y, 0); the kink at zero gives 0
    assert np.array_equal(penalty_term([-1.0, 0.0, 2.0], 1.0), [0.0, 0.0, 2.0])


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_penalty_laws(rho):
    # grid spans twice the a-priori radius of the shipped models
    y = np.linspace(-48.0, 48.0, 1001)
    vals = penalty_term(y, rho)
    assert np.all(vals[y <= 0.0] == 0.0)
    assert np.all(vals[y > 0.0] > 0.0)
    assert np.all(np.diff(vals) >= 0.0)
    # the lower bound pi(y) >= tau * y holds with tau = 1
    pos = y[y >= 0.0]
    assert np.all(vals[y >= 0.0] >= pos - 1e-12)


def test_affine_system():
    b = np.array([[0.0, 1.0], [2.0, 3.0]])
    system = identity_system(b)
    assert (system.d, system.N) == (2, 2)
    u = np.arange(4.0).reshape(2, 2)
    assert np.allclose(system.evaluate(u), u - b)
    # A and b are copies of the inputs and cannot be written through
    assert np.array_equal(system.rhs, b.ravel())
    b[0, 0] = 9.0
    assert system.rhs[0] == 0.0
    for array in (system.rhs, system.matrix.data, system.matrix.indices, system.matrix.indptr):
        assert not array.flags.writeable
    assert system.norm_F0 == 3.0
    assert a_priori_bound(system) == 3.0
    with pytest.raises(ValueError):
        AffineSystem(sp.eye(3), b, gamma=1.0)
    with pytest.raises(ValueError):
        AffineSystem(sp.eye(4), b, gamma=0.0)


@pytest.mark.parametrize("shape", [(5,), (1, 5), (2, 0)])
def test_affine_system_rejects_a_degenerate_field(shape):
    rhs = np.zeros(shape)
    with pytest.raises(ValueError):
        AffineSystem(sp.eye(rhs.size, format="csr"), rhs, gamma=1.0)


def test_a_priori_bound_trivial_case():
    assert a_priori_bound(identity_system(np.zeros((2, 1)))) == 0.0


@pytest.mark.parametrize("name", ["matrix", "rhs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_affine_system_rejects_non_finite_entries(name, value):
    matrix, rhs = np.eye(4), np.zeros((2, 2))
    {"matrix": matrix, "rhs": rhs}[name][0, 1] = value
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
        AffineSystem(matrix, rhs, gamma=1.0)


def test_penalized_problem_validation():
    system = identity_system(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 1.0), rho=-1.0)
    for costs in (SwitchingCostMatrix.uniform(3, 1.0), np.full((3, 3), 0.1), [[0.0, 0.1]]):
        with pytest.raises(ValueError):
            PenalizedProblem(system, costs, rho=1.0)


@pytest.mark.parametrize("costs", [0.1, [[0.0, 0.1], [0.1, 0.0]], np.full((2, 2), 0.1)],
                         ids=["scalar", "list", "array"])
def test_penalized_problem_takes_costs_as_as_costs_does(costs):
    # these failed on first use with "'float' object has no attribute 'd'"
    system = identity_system(np.array([[0.0], [2.0]]))
    prob = PenalizedProblem(system, costs, rho=1.0)
    assert isinstance(prob.costs, SwitchingCostMatrix)
    assert np.array_equal(prob.costs.costs, as_costs(0.1, 2).costs)
    uniform = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.1), rho=1.0)
    assert np.array_equal(penalized_residual(np.ones((2, 1)), prob),
                          penalized_residual(np.ones((2, 1)), uniform))


def test_intervention_single_competitor():
    values, regimes = _obstacles(np.array([[5.0], [3.0]]), as_costs(1.0, 2))
    assert values[0, 0] == 2.0 and regimes[0, 0] == 1


def test_intervention_argmax():
    u = np.array([[0.0], [4.0], [4.0]])
    c = SwitchingCostMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    values, regimes = _obstacles(u, c)
    assert values[0, 0] == 3.0 and regimes[0, 0] == 1


def test_intervention_tie_breaks_low():
    u = np.array([[1.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
    values, regimes = _obstacles(u, as_costs(1.0, 3))
    assert np.array_equal(values[0], [2.0, -1.0])
    assert np.array_equal(regimes[0], [1, 1])


def test_qvi_residual_zero_solution():
    system = identity_system(np.zeros((2, 1)))
    assert sup_norm(qvi_residual(np.zeros((2, 1)), system, 1.0)) == 0.0


def test_qvi_residual_below_obstacle_is_negative():
    system = identity_system(np.zeros((2, 1)))
    g = qvi_residual([[0.0], [5.0]], system, 1.0)
    assert g[0, 0] < 0.0  # node sits below its obstacle u2 - c = 4


def test_qvi_residual_rejects_zero_cost():
    system = identity_system(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="zero-cost"):
        qvi_residual(np.zeros((2, 1)), system, 0.0)


def test_penalized_residual_rho_zero_is_f():
    rng = np.random.default_rng(3)
    system = random_affine_system(rng, d=3, n=4)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(3, 0.1), rho=0.0)
    u = rng.normal(size=(3, 4))
    assert np.array_equal(penalized_residual(u, prob), system.evaluate(u))


def test_penalized_residual_hand_solved_root():
    # d=2, N=1, F(u) = u - (0, 2), c=0, rho=1: with only the regime-0 term
    # active the system is 2u0 - u1 = 0, u1 = 2, giving (1, 2). The tempting
    # both-terms-active answer (2/3, 4/3) is sign-inconsistent and fails:
    # G(2/3, 4/3) = (0, -2/3).
    system = identity_system(np.array([[0.0], [2.0]]))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), rho=1.0)
    root = np.array([[1.0], [2.0]])
    assert sup_norm(penalized_residual(root, prob)) == 0.0
    assert np.allclose(active_set_enumerate(prob), root)
    wrong = np.array([[2.0 / 3.0], [4.0 / 3.0]])
    assert sup_norm(penalized_residual(wrong, prob)) == pytest.approx(2.0 / 3.0)


def test_penalized_residual_matches_loop_oracle():
    # the production residual is tensor-assembled; the oracle accumulates with
    # plain loops — the two routes must agree to roundoff
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        system = random_affine_system(rng, d=d, n=n)
        costs = SwitchingCostMatrix(rng.uniform(0.0, 1.0, (d, d)))
        prob = PenalizedProblem(system, costs, rho=float(rng.uniform(0.0, 100.0)))
        u = rng.normal(scale=2.0, size=(d, n))
        assert np.allclose(penalized_residual(u, prob), oracle_residual(prob, u),
                           rtol=0.0, atol=1e-10)


def test_penalized_slant_inactive_equals_base():
    rng = np.random.default_rng(11)
    system = random_affine_system(rng, d=2, n=3)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 10.0), rho=50.0)
    u = rng.uniform(-1.0, 1.0, (2, 3))  # costs dwarf the spread, nothing active
    assert (penalized_slant(u, prob) != system.matrix).nnz == 0


def test_penalized_slant_active_assembly():
    system = identity_system(np.zeros((2, 1)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.9), rho=5.0)
    u = np.array([[0.0], [1.0]])  # u1 - c - u0 = 0.1 > 0, other direction inactive
    m = penalized_slant(u, prob).toarray()
    assert np.array_equal(m, [[6.0, -5.0], [0.0, 1.0]])


def test_penalized_slant_rho_zero_any_degree():
    # at rho = 0 the penalty never enters: the slant is A, even where a
    # penalty argument is positive
    system = identity_system(np.zeros((2, 1)))
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 1.0), rho=0.0)
    u = np.array([[0.0], [3.0]])
    assert (penalized_slant(u, prob) != system.matrix).nnz == 0
    assert np.array_equal(penalized_residual(u, prob), system.evaluate(u))


def test_penalized_slant_directional_derivative():
    # finite-difference probe away from kinks; small rho keeps cancellation
    # noise under the tolerance
    rng = np.random.default_rng(13)
    d, n = 3, 2
    costs = SwitchingCostMatrix.uniform(d, 0.3)
    checked = 0
    while checked < 100:
        system = random_affine_system(rng, d=d, n=n)
        prob = PenalizedProblem(system, costs, rho=float(rng.uniform(0.5, 5.0)))
        u = rng.uniform(-1.5, 1.5, (d, n))
        args = u[None, :, :] - costs.costs[:, :, None] - u[:, None, :]
        args[np.arange(d), np.arange(d), :] = 1.0
        if np.min(np.abs(args)) < 1e-3:
            continue  # too close to a kink for a clean first-order check
        h = rng.normal(size=(d, n))
        h /= sup_norm(h)
        t = 1e-7
        lhs = penalized_residual(u + t * h, prob) - penalized_residual(u, prob)
        rhs = t * (penalized_slant(u, prob) @ h.ravel()).reshape(d, n)
        assert sup_norm(lhs - rhs) / t <= 1e-6
        checked += 1


def test_sub_and_supersolutions_compare():
    # shifting a root down/up by a constant gives a sub/supersolution because
    # uniform shifts cancel inside the penalty arguments and F grows by at
    # least gamma * shift
    rng = np.random.default_rng(17)
    system = random_affine_system(rng, d=2, n=2)
    costs = SwitchingCostMatrix.uniform(2, 0.1)
    prob = PenalizedProblem(system, costs, rho=1.0)
    root = active_set_enumerate(prob)
    for shift in (0.1, 1.0, 10.0):
        sub = root - shift
        super_ = root + shift
        assert np.all(penalized_residual(sub, prob) <= 1e-9)
        assert np.all(penalized_residual(super_, prob) >= -1e-9)
        assert np.all(sub <= super_ + 1e-8)
