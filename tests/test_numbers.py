"""Every numeric parameter: a finite real number in its range, never a bool."""
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from qvipen import ExperimentConfig, extract_regions
from qvipen.core import AffineSystem, PenalizedProblem, SwitchingCostMatrix, as_costs
from qvipen.pde import PdeParams, RewardFunction, assemble, probe_index
from qvipen.regularize import ErrorConstants, penalty_error_bound, phi_minimize

PARAMS = PdeParams(d=2, reward=RewardFunction.two_regime())
SYSTEM = assemble(PARAMS)
CONSTANTS = ErrorConstants.for_system(SYSTEM, 0.5)
CONFIG = ExperimentConfig(case="two-regime", cost_list=(0.5,), rho_list=(1000.0,))


# (parameter, call, rejected value, accepted integer, the value it stands for)
CASES = [
    ("gamma", lambda g: AffineSystem(SYSTEM.matrix, SYSTEM.rhs.reshape(2, -1), g).gamma,
     True, np.int64(1), 1.0),
    ("rho", lambda r: PenalizedProblem(SYSTEM, 0.5, r).rho, "1", np.int64(1000), 1000.0),
    ("rho", lambda r: PenalizedProblem(SYSTEM, 0.5, r).rho, None, 1000, 1000.0),
    ("rho", lambda r: penalty_error_bound(CONSTANTS, r), True, 1000, 1000.0),
    ("b", lambda b: phi_minimize(1.0, 0.5, b), math.inf, 1, 1.0),
    ("nu", lambda nu: phi_minimize(nu, 0.5, 1.0), True, np.int64(2), 2.0),
    ("cost", lambda c: as_costs(c, 2).costs.tobytes(), "0.5", 1, 1.0),
    ("cost", lambda c: SwitchingCostMatrix.uniform(2, c).costs.tobytes(),
     True, np.int64(1), 1.0),
    ("x", lambda x: probe_index(PARAMS, x), math.inf, 1, 1.0),
    ("x", lambda x: probe_index(PARAMS, x), "0.5", np.int64(1), 1.0),
    ("x", lambda x: probe_index(PARAMS, x), True, 1, 1.0),
    ("rho", lambda r: extract_regions(CONFIG, r), math.nan, 1000, 1000.0),
    ("N", lambda n: PdeParams(d=2, reward=RewardFunction.two_regime(), N=n),
     50.5, np.int64(50), 50),
]


@pytest.mark.parametrize("name, call, bad, good, same", CASES, ids=[
    "bool-gamma", "string-rho", "null-rho", "bool-bound-rho", "inf-b", "bool-nu",
    "string-cost", "bool-uniform-cost", "inf-x", "string-x", "bool-x",
    "nan-regions-rho", "float-N",
])
def test_a_number_is_finite_real_and_in_range(name, call, bad, good, same):
    # each bad value used to be accepted or to fail with an error that named
    # no parameter: a numpy TypeError, an OverflowError, a bare
    # AssertionError, or a "penalty weight" in place of rho
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(bad)
    # an int or numpy integer in range stands for the number it equals
    result, expected = call(good), call(same)
    assert type(result) is type(expected) and result == expected


@pytest.mark.parametrize("build", [
    SwitchingCostMatrix, lambda c: as_costs(c, 2), lambda c: PenalizedProblem(SYSTEM, c, 1.0),
], ids=["matrix", "as-costs", "problem"])
@pytest.mark.parametrize("costs, message", [
    ([[0, "0.5"], ["0.5", 0]], "costs[0, 1] must be a nonnegative finite number, got '0.5'"),
    (np.array([[False, True], [True, False]]), "costs[0, 0] must be a finite number, got False"),
    ([[0, True], [True, 0]], "costs[0, 1] must be a nonnegative finite number, got True"),
    # np.True_ shows as True or as np.True_, by numpy version
    ([[0, np.True_], [np.True_, 0]], "costs[0, 1] must be a nonnegative finite number, got "),
    ([[0, Decimal("1")], [Decimal("1"), 0]],
     "costs[0, 1] must be a nonnegative finite number, got Decimal('1')"),
    ([[0, -0.5], [0.5, 0]], "costs[0, 1] must be a nonnegative finite number, got -0.5"),
], ids=["string", "bool-array", "bool-entry", "numpy-bool-entry", "decimal-entry",
        "negative-entry"])
def test_a_cost_matrix_entry_is_a_number(build, costs, message):
    # numpy's float cast read the first three as costs, "0.5" as 0.5 and
    # True as 1, and a negative entry was rejected without its name
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build(costs)


@pytest.mark.parametrize("costs", [
    [[0, 1], [2, 0]],
    [[7.0, np.float64(0.1)], [np.int64(3), -7.0]],
    np.array([[0.0, 0.1], [0.3, 0.0]], dtype=np.float32),
    np.arange(9).reshape(3, 3),
], ids=["ints", "numpy-scalars", "float32", "int-array"])
def test_a_numeric_cost_matrix_keeps_its_float_bits(costs):
    expected = np.array(costs, dtype=float)
    np.fill_diagonal(expected, 0.0)
    assert SwitchingCostMatrix(costs).costs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("build", [
    lambda c: as_costs(c, 2).costs.tobytes(),
    lambda c: PenalizedProblem(SYSTEM, c, 1e3).costs.costs.tobytes(),
    lambda c: ErrorConstants.for_system(SYSTEM, c),
], ids=["as-costs", "problem", "constants"])
def test_a_zero_dimensional_cost_is_a_scalar(build):
    # np.isscalar is False for a 0-d array, which was then read as a matrix
    # of shape () and rejected as not square
    assert build(np.array(0.25)) == build(0.25)
    for bad, shown in ((np.array(True), "True"), (np.array("0.25"), "'0.25'")):
        with pytest.raises(ValueError, match=f"^cost must be a nonnegative finite number, "
                                             f"got {re.escape(shown)}$"):
            build(bad)


@pytest.mark.parametrize("entry, shown", [(np.True_, ""), (Decimal("1"), "Decimal('1')")],
                         ids=["numpy-bool", "decimal"])
def test_a_reward_piece_entry_is_a_number(entry, shown):
    # float() read each as a slope of 1.0
    with pytest.raises(ValueError, match=f"^reward piece 0 slope must be a finite number, "
                                         f"got {re.escape(shown)}"):
        RewardFunction(((0, 1, entry, 0),))


@pytest.mark.parametrize("pieces", [
    np.array([[0.75, 1, -2, 2]]),
    [[np.float32(0.75), np.int64(1), -2, 2.0]],
], ids=["numpy-row", "numpy-scalars"])
def test_a_numeric_reward_piece_keeps_its_float_bits(pieces):
    expected = RewardFunction.two_regime().pieces
    got = RewardFunction(pieces).pieces
    assert got == expected and all(type(x) is float for x in got[0])
