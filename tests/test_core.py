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
    _penalized,
    as_costs,
    penalized_residual,
    penalized_slant,
    qvi_residual,
    sup_norm,
)
from qvipen.experiments import CASES
from qvipen.newton import solve_penalized, solve_root
from qvipen.oracle import active_set_enumerate
from qvipen.oracle import _residual as oracle_residual
from qvipen.pde import PdeParams, assemble
from qvipen.regularize import apply_Q, apply_Q_rho, apply_T, apply_T_rho
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
    with pytest.raises(ValueError, match="needs at least two regimes"):
        SwitchingCostMatrix([[0.0]])
    assert not SwitchingCostMatrix.uniform(2, 0.0).is_positive


@pytest.mark.parametrize("d", [2.5, True, "2", 1])
def test_uniform_costs_need_an_integer_count_of_at_least_two_regimes(d):
    # each used to fail with a bare numpy TypeError or, for 1, with no
    # mention of d
    with pytest.raises(ValueError, match=r"^d must be an integer"):
        SwitchingCostMatrix.uniform(d, 1.0)


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


def _evaluated_systems():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        yield random_affine_system(rng, d=d, n=n), rng.normal(size=(d, n))
    for case in CASES.values():
        system = assemble(PdeParams(d=case.d, reward=case.reward))
        yield system, rng.normal(size=(system.d, system.N))


def test_evaluate_is_the_sparse_product_to_the_bit():
    for system, u in _evaluated_systems():
        expected = (system.matrix @ u.ravel() - system.rhs).reshape(u.shape)
        f = system.evaluate(u)
        assert f.shape == u.shape and np.array_equal(f, expected)
        # a fresh array each call: the penalized residual subtracts in place
        f += 1.0
        assert np.array_equal(system.evaluate(u), expected)
        assert not np.shares_memory(f, u) and not np.shares_memory(f, system.rhs)


# the public operations on a field; the kernels the Newton loop runs on its
# own iterates check nothing, so these checks guard every outside field
FIELD_OPERATIONS = {
    "evaluate": lambda u, prob: prob.system.evaluate(u),
    "penalized_residual": penalized_residual,
    "penalized_slant": penalized_slant,
    "qvi_residual": lambda u, prob: qvi_residual(u, prob.system, prob.costs),
}


@pytest.mark.parametrize("name", sorted(FIELD_OPERATIONS))
def test_public_operations_check_the_field_shape(name):
    prob = PenalizedProblem(identity_system(np.ones((2, 3))), 0.5, 10.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        FIELD_OPERATIONS[name](np.zeros((2, 2)), prob)
    with pytest.raises(ValueError, match=r"expected a \(d, N\) matrix"):
        FIELD_OPERATIONS[name](np.zeros(6), prob)


# the public entries that read a field: the operations above and the sweeps
FIELD_ENTRIES = {
    **FIELD_OPERATIONS,
    "apply_Q": lambda u, prob: apply_Q(u, prob.system, prob.costs),
    "apply_T": lambda u, prob: apply_T(u, prob.system, prob.costs, 1.0),
    "apply_Q_rho": apply_Q_rho,
    "apply_T_rho": lambda u, prob: apply_T_rho(u, prob, 1.0),
}


@pytest.mark.parametrize("name", sorted(FIELD_ENTRIES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_entries_name_a_non_finite_field(name, bad):
    # the four operations returned NaN without an error, apply_Q blamed psi,
    # and the other three sweeps the "initial iterate" their caller never
    # passed
    prob = PenalizedProblem(identity_system(np.ones((2, 3))), 0.5, 10.0)
    u = np.zeros((2, 3))
    u[1, 2] = bad
    with pytest.raises(ValueError, match="^u contains non-finite entries$"):
        FIELD_ENTRIES[name](u, prob)


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


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("frozen", [False, True], ids=["live", "frozen"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_penalty_coupling_is_the_per_term_count(d, frozen, epsilon):
    # the coupling is one product of a (d^2, d^2) weight matrix with the 0/1
    # signs of the clamped arguments, so a diagonal entry is a sum of up to
    # d - 1 copies of c = rho (1 + epsilon) and zeros, in whatever order the
    # BLAS product takes. c + c = 2c is exact and fl(2c + c) = fl(3c), but
    # fl(fl(3c) + c) need not be 4c, so the product has the bits of the
    # count times c, which the loop below takes, only for d <= 4
    rng = np.random.default_rng(d)
    n = 30
    system = random_affine_system(rng, d=d, n=n)
    costs = 0.25 * rng.integers(0, 3, (d, d))
    rho = 1e3 / 3.0
    # quarters on half the nodes, so some arguments sit exactly at the kink
    v = np.hstack([0.25 * rng.integers(-4, 5, (d, n // 2)), rng.normal(size=(d, n - n // 2))])
    v[0, 0] = -10.0  # every term of regime 0 at node 0 is active
    w = np.hstack([0.25 * rng.integers(-4, 5, (d, n // 2)),
                   rng.normal(size=(d, n - n // 2))]) if frozen else v
    # and term [0, 1] at node 1 sits there for certain
    w[1, 1] = costs[0, 1] + v[0, 1] + epsilon * (v[0, 1] - w[0, 1])
    prob = PenalizedProblem(system, SwitchingCostMatrix(costs), rho)
    residual, keep, coupling = _penalized(prob, w if frozen else None, epsilon)(v)

    expected = system.evaluate(v)
    count = np.zeros((d, n), dtype=int)
    expected_coupling = np.zeros((d, d, n))
    kinks = 0
    for i in range(d):
        for l in range(n):
            penalty = 0.0
            for j in range(d):
                if j == i:
                    continue
                arg = w[j, l] - costs[i, j] - v[i, l] - epsilon * (v[i, l] - w[i, l])
                kinks += arg == 0.0
                if arg > 0.0:
                    penalty += arg
                    count[i, l] += 1
                    if not frozen:
                        expected_coupling[i, j, l] = -rho
            expected[i, l] -= penalty * rho
            expected_coupling[i, i, l] = count[i, l] * (rho * (1.0 + epsilon))
    assert kinks > 0 and count.max() == d - 1
    assert keep is None
    assert residual.tobytes() == expected.tobytes()
    assert np.array_equal(coupling, expected_coupling)


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


@pytest.mark.parametrize("rho, same", [(1000, 1000.0), (np.int64(1000), 1000.0), (0, 0.0)],
                         ids=["int", "int64", "zero"])
def test_an_integer_weight_solves_as_its_float(rho, same):
    # the linearization built active * -rho, an integer array for an integer
    # rho, so writing the float diagonal into it failed every penalized solve
    system = assemble(PdeParams(d=2, reward=CASES["two-regime"].reward))
    prob, plain = PenalizedProblem(system, 0.5, rho), PenalizedProblem(system, 0.5, same)
    start = np.linspace(-1.0, 1.0, 200).reshape(2, 100)
    assert penalized_residual(start, prob).tobytes() == penalized_residual(start, plain).tobytes()
    root, _ = solve_root(system, np.zeros((2, 100)))
    (u, report), (expected, expected_report) = solve_penalized(prob, root), solve_penalized(plain, root)
    assert u.tobytes() == expected.tobytes()
    assert report.iterations == expected_report.iterations
    assert type(prob.rho) is float
