"""The four benchmark workloads: inputs, one operation, and its output check.

Every call into qvipen goes through a module attribute looked up at call time
(``q.solve_penalized``, not a name imported once), so the traced run sees the
benchmark's own calls as well as the package's internal ones.

A workload has these parts:
- ``setup()`` builds the inputs (assembly, root solves) and is timed for
  ``setup_s``;
- ``draw(k)`` makes op k's own inputs before the clock starts;
- ``op(inputs, drawn)`` is the timed operation;
- ``check(inputs, out)`` returns ``(passed, worst deviation, detail)``;
- optionally ``counts(out)``, per-layer counters the op's output carries.
"""
from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import numpy as np

import qvipen as q

# acceptance tolerances of tests/test_acceptance.py (criteria 1-3)
VALUE_TOL = 1e-3
INCREMENT_TOL = 5e-4
# gap allowed between the three solvers, as in verify() check 2
AGREEMENT_TOL = 1e-6
# frozen at the seed commit: (case, d, N, probe x) -> (probe value, iterations)
MESH_REFERENCE = {
    ("three-regime", 3, 3000, 1.0): (7.645628543558603, 84),
    ("two-regime", 2, 10000, 0.5): (6.256227181009472, 11),
}
MESH_VALUE_TOL = 1e-9


def _load_reference_tables(root: Path):
    path = root / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        "two-regime": (module.TWO_REGIME_VALUES, module.TWO_REGIME_INCREMENTS,
                       module.TWO_REGIME_ITERATIONS),
        "three-regime": (module.THREE_REGIME_VALUES, module.THREE_REGIME_INCREMENTS,
                         module.THREE_REGIME_ITERATIONS),
    }


class Workload:
    """Defaults: no inputs to build, none to draw per op."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        return None

    def draw(self, k):
        return None


class Tables(Workload):
    """Both published grids at N=100 through run_table and write_table.

    The north-star contract: 42 + 48 cold cells on 200-300-unknown systems,
    bound by per-iteration overhead (slant assembly, CSC conversion, SuperLU
    set-up) rather than arithmetic.
    """

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.reference = _load_reference_tables(root)

    def setup(self):
        return {case: q.ExperimentConfig.from_mapping({"case": case})
                for case in ("two-regime", "three-regime")}

    def op(self, configs, drawn):
        out = {}
        for case, config in configs.items():
            table = q.run_table(config)
            out[case] = (table, q.write_table(table))
        return out

    def check(self, configs, out):
        worst = 0.0
        problems = []
        for case, (table, text) in out.items():
            values, increments, iterations = self.reference[case]
            rhos = configs[case].rho_list
            cells = {(c.c, c.rho): c for c in table.cells}
            for cost, row in iterations.items():
                for ri, rho in enumerate(rhos):
                    cell = cells[(cost, rho)]
                    if cell.error is not None or not cell.converged:
                        problems.append(f"{case} c={cost:g} rho={rho:g}: {cell.error}")
                        continue
                    if cell.iterations != row[ri]:
                        problems.append(f"{case} c={cost:g} rho={rho:g}: "
                                        f"{cell.iterations} iterations, pinned {row[ri]}")
                    dv = abs(cell.value - values[cost][ri])
                    di = 0.0 if ri == 0 else abs(cell.increment - increments[cost][ri - 1])
                    worst = max(worst, dv, di)
                    if dv > VALUE_TOL or di > INCREMENT_TOL:
                        problems.append(f"{case} c={cost:g} rho={rho:g}: value off by "
                                        f"{dv:.2e}, increment by {di:.2e}")
            lines = text.splitlines()
            if len(lines) != len(table.cells) + 1 or not lines[0].startswith("case,"):
                problems.append(f"{case}: CSV has {len(lines)} lines for "
                                f"{len(table.cells)} cells")
        return not problems, worst, "; ".join(problems[:3])


class Mesh(Workload):
    """Single cold penalized solves at c=1/64, rho=32e3 on fine meshes.

    Three-regime at N=3000 (84 iterations, 16 below max_iter=100) and
    two-regime at N=1e4 (11 iterations). Factorization dominates, and the
    three-regime count grows with N, so this is where mesh-robust Newton and
    a cheaper factorization show.
    """

    COST = 1 / 64
    RHO = 32e3
    RESIDUAL_TOL = q.NewtonConfig().residual_tol

    def setup(self):
        inputs = []
        for (case, d, n, x), frozen in MESH_REFERENCE.items():
            params = q.PdeParams(d=d, reward=q.CASES[case].reward, N=n)
            system = q.assemble(params)
            root, _ = q.solve_root(system, np.zeros((d, n)))
            prob = q.PenalizedProblem(system, q.SwitchingCostMatrix.uniform(d, self.COST),
                                      self.RHO)
            inputs.append((case, n, prob, root, q.probe_index(params, x), frozen))
        return inputs

    def op(self, inputs, drawn):
        return [q.solve_penalized(prob, root) for _, _, prob, root, _, _ in inputs]

    def check(self, inputs, out):
        worst = 0.0
        problems = []
        for (case, n, prob, _, probe, (value, iters)), (u, report) in zip(inputs, out):
            residual = q.sup_norm(q.penalized_residual(u, prob))
            dv = abs(float(np.asarray(u)[0, probe]) - value)
            worst = max(worst, residual, dv)
            if residual > self.RESIDUAL_TOL or dv > MESH_VALUE_TOL or report.iterations != iters:
                problems.append(f"{case} N={n}: residual {residual:.2e}, probe off by "
                                f"{dv:.2e}, {report.iterations} iterations (frozen {iters})")
        return not problems, worst, "; ".join(problems)


class Sweeps(Workload):
    """Fixed-count Q / T / Q_rho / T_rho sweeps plus the error-bound toolkit.

    Two-regime case at c=1/8, N=100, from the root of F. The same newton layer
    as `tables`, used differently: 200 warm-started solves of about three
    iterations each through the three slant builders the tables never call (obstacle,
    time-marching, frozen penalty). A slant refactor that speeds up `tables`
    can slow this path.
    """

    COST = 1 / 8
    RHO = 8e3
    EPSILON = 1.0
    SWEEPS = 50

    def setup(self):
        system = q.assemble(q.PdeParams(d=2, reward=q.RewardFunction.two_regime()))
        root, _ = q.solve_root(system, np.zeros((system.d, system.N)))
        costs = q.SwitchingCostMatrix.uniform(system.d, self.COST)
        prob = q.PenalizedProblem(system, costs, self.RHO)
        u_rho, _ = q.solve_penalized(prob, root)
        config = q.ExperimentConfig.from_mapping(
            {"case": "two-regime", "cost_list": [self.COST]})
        return system, costs, prob, np.asarray(root), np.asarray(u_rho), config

    def op(self, inputs, drawn):
        system, costs, prob, root, _, config = inputs
        eps = self.EPSILON
        steps = {
            "Q": lambda u: q.apply_Q(u, system, costs),
            "T": lambda u: q.apply_T(u, system, costs, eps),
            "Q_rho": lambda u: q.apply_Q_rho(u, prob),
            "T_rho": lambda u: q.apply_T_rho(u, prob, eps),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", q.NonMonotoneSweep)
            iterates = {name: q.iterate_to_fixed_point(step, root, max_sweeps=self.SWEEPS)
                        for name, step in steps.items()}
        constants = q.ErrorConstants.for_system(system, costs)
        bound = q.penalty_error_bound(constants, self.RHO)
        supersolution = q.strict_supersolution(system, costs, constants.kappa)
        regions = q.extract_regions(config, self.RHO)
        nonmonotone = sum(issubclass(w.category, q.NonMonotoneSweep) for w in caught)
        return iterates, nonmonotone, constants, bound, supersolution, regions

    def counts(self, out):
        return {"regularize.nonmonotone_warnings": out[1]}

    def check(self, inputs, out):
        system, costs, _, _, u_rho, _ = inputs
        iterates, nonmonotone, constants, bound, supersolution, regions = out
        problems = []
        if nonmonotone:
            problems.append(f"{nonmonotone} NonMonotoneSweep warnings")
        counts = {name: n for name, (_, n, _) in iterates.items()}
        if set(counts.values()) != {self.SWEEPS}:
            problems.append(f"sweep counts {counts}, expected {self.SWEEPS} each")
        above = float((np.asarray(iterates["Q_rho"][0]) - u_rho).max())
        if above > 0.0:
            problems.append(f"Q_rho iterate exceeds u^rho by {above:.2e}")
        defect = q.sup_norm(q.qvi_residual(supersolution, system, costs) - constants.kappa)
        if defect > 1e-2 * constants.kappa or not bound > 0.0:
            problems.append(f"supersolution defect {defect:.2e}, error bound {bound:.3g}")
        excluded = [r.regime for r in regions.regions if not r.included]
        if excluded:
            problems.append(f"regimes {excluded} not included in their estimate")
        return not problems, max(defect, above, 0.0), "; ".join(problems)


class Oracle(Workload):
    """Three-solver agreement on seeded verify-style random instances.

    Each op is one round: a d=2 and a d=3 system from random_affine_system
    (n in {1, 2}, cost in {0, 0.1, 1}, gamma=1, as in verify() check 2), each
    solved at rho = 0, 1 and 1e3 by Newton, pseudo_time_solve and
    active_set_enumerate. The only workload where the oracle's explicit
    march does the work; Newton does almost none of it. Stratifying d and
    rho inside a round keeps every op the same mix of shapes, so op times
    vary with the drawn entries only.
    """

    RHOS = (0.0, 1.0, 1e3)
    # rounds are drawn from a fixed pool of about one run's worth, entered at
    # an offset set by the seed: instance difficulty alone moves a 26 s run's
    # median op time by up to 25% between freshly drawn pools
    POOL = 12
    POOL_STREAM = 2024

    def draw(self, k):
        # op k's instances depend on (seed, k) only, so a traced phase can
        # replay the untraced phase's ops
        rng = np.random.default_rng([self.POOL_STREAM, (self.seed + k) % self.POOL])
        probs = []
        for d in (2, 3):
            n = int(rng.choice([1, 2]))
            cost = float(rng.choice([0.0, 0.1, 1.0]))
            system = q.testing.random_affine_system(rng, d=d, n=n, gamma=1.0)
            costs = q.SwitchingCostMatrix.uniform(d, cost)
            probs += [q.PenalizedProblem(system, costs, rho) for rho in self.RHOS]
        return probs

    def op(self, inputs, probs):
        out = []
        for prob in probs:
            u_newton, _ = q.solve_penalized(prob, np.zeros((prob.system.d, prob.system.N)))
            u_march = q.oracle.pseudo_time_solve(prob, tol=1e-9)
            u_enum = q.oracle.active_set_enumerate(prob)
            out.append((np.asarray(u_newton), np.asarray(u_march), np.asarray(u_enum)))
        return out

    def check(self, inputs, out):
        worst = 0.0
        for a, b, c in out:
            worst = max(worst, q.sup_norm(a - b), q.sup_norm(a - c), q.sup_norm(b - c))
        passed = worst <= AGREEMENT_TOL
        return passed, worst, "" if passed else f"max pairwise gap {worst:.2e}"


WORKLOADS = {"tables": Tables, "mesh": Mesh, "sweeps": Sweeps, "oracle": Oracle}
