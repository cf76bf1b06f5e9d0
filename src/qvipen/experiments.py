"""Experiment harness: (cost, weight) sweeps, region extraction, verification.

This layer turns the solver library into reproducible table artifacts: each
cell of a sweep is an independent cold-started solve, run one after another
in the config's cost-major order.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import (
    AffineSystem,
    PenalizedProblem,
    SwitchingCostMatrix,
    _number,
    _obstacles,
    a_priori_bound,
    sup_norm,
)
from .newton import (
    MaxIterExceeded,
    NewtonConfig,
    SingularSlant,
    _solve_qvi,
    solve_penalized,
    solve_root,
)
from .oracle import active_set_enumerate, pseudo_time_solve
from .pde import PdeParams, RewardFunction, assemble, probe_index
from .regularize import _regime_gap
from .testing import monotonicity_slack, random_affine_system

__all__ = [
    "CASES",
    "TABLE1_RHO",
    "TABLE1_COSTS",
    "TABLE2_RHO",
    "TABLE2_COSTS",
    "ExperimentConfig",
    "CellRecord",
    "TableResult",
    "RegimeRegions",
    "RegionReport",
    "run_table",
    "write_table",
    "extract_regions",
    "verify",
]

TABLE1_RHO = tuple(1000.0 * m for m in (1, 2, 4, 8, 16, 32))
TABLE1_COSTS = (0.5, 0.125, 1 / 32, 1 / 128, 1 / 512, 1 / 2048, 0.0)
TABLE2_RHO = tuple(1000.0 * m for m in (4, 8, 16, 32, 64, 128))
TABLE2_COSTS = (0.25, 1 / 16, 1 / 64, 1 / 256, 1 / 1024, 1 / 4096, 1 / 16384, 0.0)


@dataclass(frozen=True)
class CaseSpec:
    d: int
    reward: RewardFunction
    probe_point: float
    rho_list: tuple
    cost_list: tuple


CASES = {
    "two-regime": CaseSpec(2, RewardFunction.two_regime(), 0.5, TABLE1_RHO, TABLE1_COSTS),
    "three-regime": CaseSpec(3, RewardFunction.three_regime(), 1.0, TABLE2_RHO, TABLE2_COSTS),
}

_NEWTON_KEYS = {f.name for f in dataclasses.fields(NewtonConfig)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a named case, its (cost, weight) grid, and output."""

    case: str = "two-regime"
    # None takes the case's own grid and probe; a custom case takes two-regime's
    rho_list: tuple | None = None
    cost_list: tuple | None = None
    probe_point: float | None = None
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    output_path: str | None = None
    format: str = "csv"
    d: int | None = None
    N: int = 100
    reward_pieces: tuple | None = None

    def __post_init__(self) -> None:
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got "
                             f"{type(self.output_path).__name__} {self.output_path!r}")
        if self.output_path == "":
            raise ValueError("output_path must name a file, got ''; omit it for stdout")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.case not in ("two-regime", "three-regime", "custom"):
            raise ValueError(f"unknown case {self.case!r}")
        spec = CASES.get(self.case, CASES["two-regime"])
        for name in ("rho_list", "cost_list", "probe_point"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(spec, name))
        if not self.rho_list:
            raise ValueError("rho_list must be nonempty")
        if not self.cost_list:
            raise ValueError("cost_list must be nonempty")
        # one number type, whatever the source: a JSON 1000000 prints as 1000000.0
        for name, closed in (("rho_list", False), ("cost_list", True)):
            object.__setattr__(self, name, tuple(
                _number(f"{name}[{k}]", value, 0, closed=closed)
                for k, value in enumerate(getattr(self, name))))
        object.__setattr__(self, "probe_point", _number("probe_point", self.probe_point))
        given = [name for name in ("d", "reward_pieces") if getattr(self, name) is not None]
        if self.case == "custom" and len(given) < 2:
            raise ValueError("custom case needs explicit 'd' and 'reward_pieces'")
        if self.case != "custom" and given:
            raise ValueError(
                f"{' and '.join(given)} can only be set for the custom case; "
                f"{self.case!r} fixes its own"
            )
        # builds the discretization and places the probe, so an invalid
        # reward, dimension, or off-grid probe point is rejected here
        self.probe_node()

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        unknown = sorted(set(mapping) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        fields = dict(mapping)
        newton_map = fields.pop("newton", None)
        if newton_map is not None:
            if not isinstance(newton_map, dict):
                raise ValueError(
                    f"newton must be a mapping of {', '.join(sorted(_NEWTON_KEYS))}, "
                    f"got {type(newton_map).__name__} {newton_map!r}"
                )
            bad = sorted(set(newton_map) - _NEWTON_KEYS)
            if bad:
                raise ValueError(f"unknown newton config keys: {', '.join(bad)}")
            fields["newton"] = NewtonConfig(**newton_map)
        for key in ("rho_list", "cost_list", "reward_pieces"):
            if key in fields and fields[key] is not None:
                # a string is iterable too, and would be split into characters
                if not isinstance(fields[key], (list, tuple)):
                    raise ValueError(
                        f"{key} must be a list, got {type(fields[key]).__name__} "
                        f"{fields[key]!r}"
                    )
                fields[key] = tuple(
                    tuple(p) if isinstance(p, (list, tuple)) else p for p in fields[key]
                )
        return cls(**fields)

    def pde_params(self) -> PdeParams:
        if self.case == "custom":
            return PdeParams(d=self.d, reward=RewardFunction(self.reward_pieces), N=self.N)
        spec = CASES[self.case]
        return PdeParams(d=spec.d, reward=spec.reward, N=self.N)

    def probe_node(self) -> int:
        return probe_index(self.pde_params(), self.probe_point)


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


@dataclass
class CellRecord:
    """One (c, rho) cell of a sweep."""

    case: str
    c: float
    rho: float
    probe_x: float
    value: float | None
    increment: float | None
    iterations: int | None
    runtime_s: float | None
    # max over nodes of the spread between regimes; tends to 0 as rho grows
    # on a zero-cost row
    regime_gap: float | None = None
    # the cause of a failed cell
    error: str | None = None

    @property
    def converged(self) -> bool:
        """Whether the cell's solve converged, that is, recorded no error."""
        return self.error is None


@dataclass
class TableResult:
    """A solved sweep: one CellRecord per cell, and in ``solutions`` the
    (d, N) field of every cell that converged, keyed by its (cost index,
    weight index) in the config's lists."""

    case: str
    probe_x: float
    cells: list
    solutions: dict


def run_table(config: ExperimentConfig) -> TableResult:
    """Solve the full (cost, weight) grid, every cell cold from the root of F.

    Zero-cost cells take the same penalized solve as the others: as rho grows
    they approach the HJB limit. Failures are recorded per cell and the sweep
    continues. Cells are ordered by the config's cost and weight lists.
    """
    system = assemble(config.pde_params())
    probe = config.probe_node()
    cfg = config.newton
    root, _ = solve_root(system, np.zeros((system.d, system.N)), cfg)

    cells = []
    solutions = {}
    for ci, cost in enumerate(config.cost_list):
        costs = SwitchingCostMatrix.uniform(system.d, cost)
        previous = None
        for ri, rho in enumerate(config.rho_list):
            value = increment = gap = error = None
            try:
                u, report = solve_penalized(PenalizedProblem(system, costs, rho), root, cfg)
            except (SingularSlant, MaxIterExceeded) as exc:
                u, report, error = None, exc.report, str(exc)
            else:
                value, gap = float(u[0, probe]), _regime_gap(u)
                if previous is not None:
                    increment = sup_norm(u - previous)
                solutions[(ci, ri)] = u
            cells.append(CellRecord(config.case, cost, rho, config.probe_point, value, increment,
                                    report.iterations, report.elapsed_seconds, gap, error))
            previous = u
    return TableResult(config.case, config.probe_point, cells, solutions)


def _blank_or(spec):
    return lambda x: "" if x is None else spec % x


# CellRecord's fields in order, each with its CSV text: a field not named here
# is a number to 6 significant digits, whatever its Python type
_CSV_TEXT = {"case": str, "iterations": _blank_or("%d"), "runtime_s": _blank_or("%.4f"),
             "error": _blank_or("%s")}
_COLUMNS = tuple((f.name, _CSV_TEXT.get(f.name, _blank_or("%.6g")))
                 for f in dataclasses.fields(CellRecord))


def _json_text(record) -> str:
    """A dataclass or a dict as indented JSON, ending in a newline."""
    if dataclasses.is_dataclass(record):
        record = dataclasses.asdict(record)
    return json.dumps(record, indent=2) + "\n"


def write_table(table: TableResult, fmt: str = "csv") -> str:
    """Render a sweep as CSV or JSON, one column or key per CellRecord field;
    a CSV field is blank for None and quoted when it holds a comma."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(name for name, _ in _COLUMNS)
        writer.writerows([text(getattr(cell, name)) for name, text in _COLUMNS]
                         for cell in table.cells)
        return buf.getvalue()
    if fmt == "json":
        cells = [{name: getattr(cell, name) for name, _ in _COLUMNS} for cell in table.cells]
        return _json_text({"case": table.case, "probe_x": table.probe_x, "cells": cells})
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


REGION_TOL = 1e-6


@dataclass
class RegimeRegions:
    regime: int
    exact: tuple
    estimated: tuple
    match: bool
    missing: tuple    # exact nodes the estimate failed to flag
    spurious: tuple   # estimated nodes outside the exact region
    included: bool    # exact subset of estimated


@dataclass
class RegionReport:
    rho_used: float
    C0_estimate: float
    threshold: float
    regions: list
    match: bool


def _binding_sets(u, costs, tol):
    gap = u - _obstacles(u, costs)[0]
    return [tuple(int(l) for l in np.nonzero(mask)[0]) for mask in np.abs(gap) <= tol]


def _check_region_inputs(cost: float, rho: float) -> None:
    """Reject a cost and weight :func:`extract_regions` cannot use: the cost
    must be positive and rho must exceed 1, for the ln(rho) threshold."""
    _number("cost", cost, 0)
    _number("rho", rho, 1)


def extract_regions(config: ExperimentConfig, rho: float) -> RegionReport:
    """Compare estimated switching regions at weight rho with exact ones.

    The exact regions are where |gap| <= REGION_TOL at the QVI solution u
    itself, solved exactly by Newton from u^rho (two or three iterations).
    The estimated regions use the published recipe
    |gap| <= C0 * ln(rho)/rho at u^rho, with C0 estimated as
    4*rho*||u^{2 rho} - u^{rho}||/ln(rho).
    """
    cost = config.cost_list[0]
    _check_region_inputs(cost, rho)
    params = config.pde_params()
    system = assemble(params)
    cfg = config.newton
    costs = SwitchingCostMatrix.uniform(system.d, cost)
    root, _ = solve_root(system, np.zeros((system.d, system.N)), cfg)

    u_rho, _ = solve_penalized(PenalizedProblem(system, costs, rho), root, cfg)
    u_2rho, _ = solve_penalized(PenalizedProblem(system, costs, 2 * rho), root, cfg)
    C0 = 4.0 * rho * sup_norm(u_2rho - u_rho) / math.log(rho)
    u, _ = _solve_qvi(system, costs, u_rho, cfg=cfg)

    threshold = C0 * math.log(rho) / rho
    exact = _binding_sets(u, costs, REGION_TOL)
    estimated = _binding_sets(u_rho, costs, threshold)
    regions = []
    for i, (ex, est) in enumerate(zip(exact, estimated)):
        ex_set, est_set = set(ex), set(est)
        regions.append(RegimeRegions(
            regime=i,
            exact=ex,
            estimated=est,
            match=ex_set == est_set,
            missing=tuple(sorted(ex_set - est_set)),
            spurious=tuple(sorted(est_set - ex_set)),
            included=ex_set <= est_set,
        ))
    return RegionReport(
        rho_used=float(rho),
        C0_estimate=C0,
        threshold=threshold,
        regions=regions,
        match=all(r.match for r in regions),
    )


def _failure(exc: Exception) -> str:
    """The exception's type and message, and the file and line that raised it."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {where.filename}:{where.lineno}: {exc}"


def _tiny_instance(config: ExperimentConfig):
    """A tiny instance with a known closed form: F_i(u) = u^i - b_i."""
    system = AffineSystem(sp.identity(2, format="csr"), np.array([[0.0], [2.0]]), gamma=1.0)
    prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(2, 0.0), 1.0)
    newton_u, _ = solve_penalized(prob, np.zeros((2, 1)), config.newton)
    march_u = pseudo_time_solve(prob, tol=1e-10)
    enum_u = active_set_enumerate(prob)
    expected = np.array([[1.0], [2.0]])
    worst = max(sup_norm(u - expected) for u in (newton_u, march_u, enum_u))
    return worst <= 1e-6, f"max deviation {worst:.2e}"


def _solver_agreement(config: ExperimentConfig):
    """The three solvers agree on random small instances."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(15):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        system = random_affine_system(rng, d=d, n=n, gamma=1.0)
        rho = [0.0, 1.0, 1e3][k % 3]
        cost = [0.0, 0.1, 1.0][(k // 3) % 3]
        prob = PenalizedProblem(system, SwitchingCostMatrix.uniform(d, cost), rho)
        u_newton, _ = solve_penalized(prob, np.zeros((d, n)), config.newton)
        u_march = pseudo_time_solve(prob, tol=1e-9)
        worst = max(worst, sup_norm(u_newton - u_march))
        if (d - 1) * d * n <= 16:
            worst = max(worst, sup_norm(u_newton - active_set_enumerate(prob)))
    return worst <= 1e-6, f"max pairwise gap {worst:.2e} over 15 instances"


def _monotonicity_probes(config: ExperimentConfig):
    """Monotonicity probes on random systems."""
    rng = np.random.default_rng(7)
    slack = 0.0
    for _ in range(20):
        system = random_affine_system(rng, d=3, n=3, gamma=1.0)
        u = rng.uniform(-2, 2, (3, 3))
        v = rng.uniform(-2, 2, (3, 3))
        slack = min(slack, monotonicity_slack(system, u, v))
    return slack >= -1e-12, f"min slack {slack:.2e} over 20 probes"


def _bound_holds(config: ExperimentConfig):
    """The a-priori bound on the named case, at its first cost and last weight."""
    system = assemble(config.pde_params())
    root, _ = solve_root(system, np.zeros((system.d, system.N)), config.newton)
    costs = SwitchingCostMatrix.uniform(system.d, config.cost_list[0])
    prob = PenalizedProblem(system, costs, config.rho_list[-1])
    u, _ = solve_penalized(prob, root, config.newton)
    bound = a_priori_bound(system)
    return (sup_norm(u) <= bound + 1e-9,
            f"||u|| = {sup_norm(u):.4f} vs bound {bound:.4f}")


def _gap_halving(config: ExperimentConfig):
    """Zero-cost regime gaps halve per weight doubling on the sweep's cost-0 row."""
    row = run_table(dataclasses.replace(config, cost_list=(0.0,),
                                        rho_list=(1e3, 2e3, 4e3))).cells
    failed = [cell for cell in row if cell.error is not None]
    if failed:
        return False, f"rho = {failed[0].rho:g}: {failed[0].error}"
    ratios = [row[k].regime_gap / row[k + 1].regime_gap for k in range(2)]
    return (all(1.8 <= r <= 2.2 for r in ratios),
            f"ratios {', '.join('%.3f' % r for r in ratios)}")


_CHECKS = (
    ("tiny-instance-closed-form", _tiny_instance),
    ("solver-agreement", _solver_agreement),
    ("monotonicity-probes", _monotonicity_probes),
    ("a-priori-bound", _bound_holds),
    ("zero-cost-gap-halving", _gap_halving),
)


def verify(config: ExperimentConfig | None = None) -> dict:
    """Run the oracle-agreement and invariant suites; failures are data, and a
    check that raises fails with :func:`_failure` as its detail."""
    config = config or ExperimentConfig()
    checks = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(config)
        except Exception as exc:
            passed, detail = False, _failure(exc)
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
    return {"checks": checks, "passed": all(c["passed"] for c in checks)}
