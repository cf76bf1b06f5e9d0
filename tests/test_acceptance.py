"""Acceptance gate: ten end-to-end criteria against published references.

Each test prints one pass/fail line (visible with -s; the -v test id serves
the same purpose) and asserts with pinned tolerances.
"""
import math
import time

import numpy as np
import pytest

from qvipen import (
    ErrorConstants,
    ExperimentConfig,
    PenalizedProblem,
    SwitchingCostMatrix,
    apply_Q,
    apply_Q_rho,
    extract_regions,
    phi_minimize,
    phi_upper_bound,
    run_table,
    solve_penalized,
    solve_root,
    strict_supersolution,
    sup_norm,
    qvi_residual,
    zero_cost_gap_bound,
)
from qvipen.newton import NewtonConfig
from qvipen.oracle import active_set_enumerate, pseudo_time_solve
from qvipen.pde import PdeParams, RewardFunction, assemble
from qvipen.testing import monotonicity_slack, random_affine_system

from reference_tables import (
    THREE_REGIME_COSTS,
    THREE_REGIME_INCREMENTS,
    THREE_REGIME_ITERATIONS,
    THREE_REGIME_RHO,
    THREE_REGIME_VALUES,
    TWO_REGIME_COSTS,
    TWO_REGIME_INCREMENTS,
    TWO_REGIME_ITERATIONS,
    TWO_REGIME_RHO,
    TWO_REGIME_VALUES,
)


def _report(number, passed, detail):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} — {detail}",
          flush=True)
    assert passed, detail


@pytest.fixture(scope="module")
def table1():
    config = ExperimentConfig.from_mapping({"case": "two-regime"})
    start = time.perf_counter()
    result = run_table(config)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def table2():
    config = ExperimentConfig.from_mapping({"case": "three-regime"})
    result = run_table(config)
    return result


def _cells_by_key(table):
    return {(c.c, c.rho): c for c in table.cells}


def test_criterion_01_table1_values(table1):
    result, elapsed = table1
    cells = _cells_by_key(result)
    worst = 0.0
    for cost in TWO_REGIME_COSTS:
        for ri, rho in enumerate(TWO_REGIME_RHO):
            cell = cells[(cost, rho)]
            assert cell.converged and cell.error is None
            worst = max(worst, abs(cell.value - TWO_REGIME_VALUES[cost][ri]))
    _report(1, worst <= 1e-3 and elapsed < 30.0,
            f"42 cells, max |value - reference| = {worst:.2e}, "
            f"sweep took {elapsed:.2f}s (< 30s)")


def test_criterion_02_table2_values(table2):
    cells = _cells_by_key(table2)
    worst = 0.0
    for cost in THREE_REGIME_COSTS:
        for ri, rho in enumerate(THREE_REGIME_RHO):
            cell = cells[(cost, rho)]
            assert cell.converged and cell.error is None
            worst = max(worst, abs(cell.value - THREE_REGIME_VALUES[cost][ri]))
    _report(2, worst <= 1e-3,
            f"48 cells, max |value - reference| = {worst:.2e}")


def test_criterion_03_increments(table1, table2):
    result, _ = table1
    cells = _cells_by_key(result)
    worst = 0.0
    bad_ratios = []
    for cost in TWO_REGIME_COSTS:
        increments = [cells[(cost, rho)].increment for rho in TWO_REGIME_RHO[1:]]
        for inc, ref in zip(increments, TWO_REGIME_INCREMENTS[cost]):
            worst = max(worst, abs(inc - ref))
        # successive ratios from rho = 4e3 upward
        for k in range(1, len(increments) - 1):
            ratio = increments[k] / increments[k + 1]
            if not 1.8 <= ratio <= 2.2:
                bad_ratios.append((cost, TWO_REGIME_RHO[k + 1], ratio))
    cells = _cells_by_key(table2)
    for cost in THREE_REGIME_COSTS:
        for rho, ref in zip(THREE_REGIME_RHO[1:], THREE_REGIME_INCREMENTS[cost]):
            worst = max(worst, abs(cells[(cost, rho)].increment - ref))
    _report(3, worst <= 5e-4 and not bad_ratios,
            f"75 increments of both tables, max |increment - reference| = "
            f"{worst:.2e}, Table 1 halving ratios within [1.8, 2.2] "
            f"({len(bad_ratios)} violations)")


def test_criterion_04_iteration_counts(table1, table2):
    result1, _ = table1
    bad = []
    for result, costs, rhos, refs in (
        (result1, TWO_REGIME_COSTS, TWO_REGIME_RHO, TWO_REGIME_ITERATIONS),
        (table2, THREE_REGIME_COSTS, THREE_REGIME_RHO, THREE_REGIME_ITERATIONS),
    ):
        cells = _cells_by_key(result)
        for cost in costs:
            for ri, rho in enumerate(rhos):
                ref = refs[cost][ri]
                iters = cells[(cost, rho)].iterations
                if not ref / 2 <= iters <= ref * 2:
                    bad.append((cost, rho, iters, ref))
    _report(4, not bad,
            f"90 cells within 2x of the published counts ({len(bad)} violations)")


def test_criterion_05_monotone_in_weight(table1):
    result, _ = table1
    worst = np.inf
    for ci in range(len(TWO_REGIME_COSTS)):
        for ri in range(len(TWO_REGIME_RHO) - 1):
            diff = result.solutions[(ci, ri + 1)] - result.solutions[(ci, ri)]
            worst = min(worst, float(diff.min()))
    _report(5, worst >= -1e-8,
            f"u at doubled weight dominates: min componentwise step {worst:.2e}")


def test_criterion_06_cost_sweep_shape(table1):
    result, _ = table1
    cells = _cells_by_key(result)
    at_16k = [cells[(c, 16e3)].increment for c in TWO_REGIME_COSTS]
    growing = all(a < b for a, b in zip(at_16k[:4], at_16k[1:5]))
    stabilized = abs(at_16k[5] - at_16k[6]) / at_16k[6] <= 0.05

    def envelope(c, rho):
        second = 1.0 / rho + c * rho
        if c == 0.0:
            return second
        first = -math.log(rho) / (math.log(1.0 - c) * rho)
        return min(first, second)

    fitted = 0.0
    for ci, cost in enumerate(TWO_REGIME_COSTS):
        for rho in TWO_REGIME_RHO[1:]:
            fitted = max(fitted, cells[(cost, rho)].increment / envelope(cost, rho))
    _report(6, growing and stabilized and fitted <= 200.0,
            f"increments at rho=16e3 grow through c=1/128, stabilize to "
            f"{abs(at_16k[5] - at_16k[6]) / at_16k[6]:.2%} at the smallest costs; "
            f"fitted envelope constant {fitted:.1f} <= 200")


def test_criterion_07_three_solver_agreement():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    enumerated = 0
    for k in range(50):
        d = int(rng.choice([2, 3]))
        n = int(rng.choice([1, 2, 4]))
        rho = float(rng.choice([0.0, 1.0, 1e3]))
        cost = float(rng.choice([0.0, 0.1, 1.0]))
        system = random_affine_system(rng, d=d, n=n, gamma=1.0)
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), rho)
        u_newton, _ = solve_penalized(prob, np.zeros((d, n)))
        u_march = pseudo_time_solve(prob, tol=1e-9)
        worst = max(worst, sup_norm(u_newton - u_march))
        if (d - 1) * d * n <= 16:
            u_enum = active_set_enumerate(prob)
            worst = max(worst, sup_norm(u_newton - u_enum),
                        sup_norm(u_march - u_enum))
            enumerated += 1
    elapsed = time.perf_counter() - start
    _report(7, worst <= 1e-6 and elapsed < 60.0,
            f"50 instances ({enumerated} with exhaustive enumeration), max "
            f"pairwise gap {worst:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_08_invariant_suites(table1):
    result, _ = table1
    system = assemble(PdeParams(d=2, reward=RewardFunction.two_regime()))
    root, _ = solve_root(system, np.zeros((2, 100)))
    pieces = []

    # growth condition probes on random systems
    rng = np.random.default_rng(5)
    slack = 0.0
    for _ in range(20):
        probe_sys = random_affine_system(rng, d=3, n=3, gamma=1.0)
        slack = min(slack, monotonicity_slack(
            probe_sys, rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, (3, 3))
        ))
    pieces.append(("growth-probes", slack >= -1e-12))

    # every computed table solution obeys the a-priori bound
    bound = system.norm_F0 / system.gamma
    biggest = max(sup_norm(u) for u in result.solutions.values())
    pieces.append(("a-priori-bound", biggest <= bound + 1e-9))

    # penalized sweep operator never expands distances
    small = random_affine_system(np.random.default_rng(7), d=2, n=2, gamma=1.0)
    prob = PenalizedProblem(small, SwitchingCostMatrix.uniform(2, 0.5), 50.0)
    expansion = 0.0
    for _ in range(20):
        a = rng.uniform(-2, 2, (2, 2))
        b = a + rng.uniform(-1, 1, (2, 2))
        expansion = max(expansion, sup_norm(
            apply_Q_rho(a, prob) - apply_Q_rho(b, prob)
        ) / sup_norm(a - b))
    pieces.append(("penalized-sweep-nonexpansive", expansion <= 1.0 + 1e-10))

    # obstacle sweep preserves ordering
    ordered = True
    small_root, _ = solve_root(small, np.zeros((2, 2)))
    for _ in range(10):
        v = small_root + rng.uniform(-1, 1, (2, 2))
        u = v + rng.uniform(0, 1, (2, 2))
        qu = apply_Q(u, small, 0.5)
        qv = apply_Q(v, small, 0.5)
        ordered = ordered and (qu - qv).min() >= -1e-8
    pieces.append(("obstacle-sweep-monotone", ordered))

    # geometric error formula dominates the sweep error for n = 0..30
    costs = SwitchingCostMatrix.uniform(2, 0.5)
    u1, _ = solve_penalized(PenalizedProblem(system, costs, 1e6), root)
    u2, _ = solve_penalized(PenalizedProblem(system, costs, 2e6), root)
    margin = 2.0 * sup_norm(u2 - u1)
    u_exact = u1 + margin
    constants = ErrorConstants.for_system(system, 0.5)
    u = root.copy()
    formula_ok = True
    for n in range(31):
        cap = constants.L_kappa * (1 - constants.mu) ** n / constants.mu
        formula_ok = formula_ok and (u_exact - u).max() <= cap + 1e-6
        u = apply_Q(u, system, 0.5)
    pieces.append(("sweep-error-formula", formula_ok))

    # strict supersolution residual pinned at kappa
    kappa = 0.25
    w = strict_supersolution(system, 0.5, kappa)
    defect = sup_norm(qvi_residual(w, system, 0.5) - kappa)
    pieces.append(("supersolution-residual", defect <= 1e-10))

    # integer descent scan stays under its closed-form bound
    scan_ok = True
    for _ in range(20):
        nu = float(10 ** rng.uniform(-1, 4))
        a = float(rng.uniform(0.01, 0.99))
        b = float(10 ** rng.uniform(-6, 1))
        n_star, m = phi_minimize(nu, a, b)
        brute = min(range(5000), key=lambda n: nu * a**n + b * n)
        scan_ok = scan_ok and n_star == brute and m <= phi_upper_bound(nu, a, b) * (1 + 1e-12)
    pieces.append(("descent-scan-vs-bound", scan_ok))

    # zero-cost gap bound on the smallest table costs, at every weight
    zero_ci = TWO_REGIME_COSTS.index(0.0)
    gap_ok = True
    for cost in (1 / 512, 1 / 2048):
        ci = TWO_REGIME_COSTS.index(cost)
        for ri, rho in enumerate(TWO_REGIME_RHO):
            gap = zero_cost_gap_bound(
                result.solutions[(ci, ri)], result.solutions[(zero_ci, ri)],
                cost, rho, system.gamma,
            )
            gap_ok = gap_ok and 0.0 <= gap <= (2 - 1) * cost * rho / system.gamma + 1e-8
    pieces.append(("zero-cost-gap-bound", gap_ok))

    failed = [name for name, ok in pieces if not ok]
    _report(8, not failed,
            f"{len(pieces)} invariant suites pass" if not failed
            else f"failing suites: {', '.join(failed)}")


def test_criterion_09_region_exactness():
    matched = []
    included_everywhere = True
    for cost in (0.5, 0.125):
        config = ExperimentConfig.from_mapping(
            {"case": "two-regime", "cost_list": [cost], "rho_list": [32e3]}
        )
        report = extract_regions(config, 32e3)
        matched.append(report.match)
        for rho in (1e3, 2e3, 4e3, 8e3, 16e3):
            smaller = extract_regions(config, rho)
            included_everywhere = included_everywhere and all(
                r.included for r in smaller.regions
            )
    _report(9, all(matched) and included_everywhere,
            f"estimated regions match the exact QVI solution's regions at "
            f"rho=32e3 for c in {{1/2, 1/8}}, and contain them at every "
            f"smaller weight")


def test_criterion_10_zero_cost_limit(table1):
    result, _ = table1
    cells = _cells_by_key(result)
    worst = max(
        abs(cells[(0.0, rho)].value - TWO_REGIME_VALUES[0.0][ri])
        for ri, rho in enumerate(TWO_REGIME_RHO)
    )
    zero_ci = TWO_REGIME_COSTS.index(0.0)
    gaps = []
    for ri in range(len(TWO_REGIME_RHO)):
        u = result.solutions[(zero_ci, ri)]
        gaps.append(float(np.max(u.max(axis=0) - u.min(axis=0))))
    ratios = [gaps[k] / gaps[k + 1] for k in range(len(gaps) - 1)]
    halving = all(1.6 <= r <= 2.4 for r in ratios)
    _report(10, worst <= 1e-3 and halving,
            f"zero-cost row max error {worst:.2e}; regime gaps halve per "
            f"weight doubling (ratios {', '.join('%.2f' % r for r in ratios)})")
