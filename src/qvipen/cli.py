"""Command-line experiment runner.

Exit status: 0 when every solve converged and every enabled check passed,
1 when a solve or check failed, 2 for configuration or usage errors. For
``regions`` the check is that every exact region lies inside its estimate;
whether the two match exactly is reported but does not set the status.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import PenalizedProblem, SwitchingCostMatrix, field_values, sup_norm
from .experiments import ExperimentConfig, extract_regions, run_table, verify, write_table
from .newton import NewtonConfig, solve_penalized, solve_root
from .pde import assemble
from .regularize import hjb_limit_solve

__all__ = ["main", "build_parser"]


def _float_list(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvipen",
        description="Penalty-scheme experiments for optimal-switching systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve one (cost, weight) problem and report the probe value"),
        ("table", "run the full (cost, weight) sweep"),
        ("regions", "extract switching regions and compare with the exact ones"),
        ("verify", "run the oracle-agreement and invariant suites"),
        ("hjb", "solve the zero-cost limit along the weight schedule"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON file with experiment settings")
        cmd.add_argument("--case", help="two-regime | three-regime | custom")
        cmd.add_argument("--out", help="output file path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        cmd.add_argument("--rho", type=_float_list, help="comma-separated weights")
        cmd.add_argument("--cost", type=_float_list, help="comma-separated costs")
        cmd.add_argument("--tol", type=float, help="Newton increment tolerance")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads for sweep cells")
    return parser


def _load_config(args) -> ExperimentConfig:
    mapping = {}
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        mapping.update(loaded)
    if args.case:
        mapping["case"] = args.case
    if args.rho is not None:
        mapping["rho_list"] = args.rho
    if args.cost is not None:
        mapping["cost_list"] = args.cost
    if args.format:
        mapping["format"] = args.format
    if args.out:
        mapping["output_path"] = args.out
    if args.tol is not None:
        newton = dict(mapping.get("newton", {}))
        newton["tol"] = args.tol
        mapping["newton"] = newton
    return ExperimentConfig.from_mapping(mapping)


def _emit(text: str, config: ExperimentConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(config: ExperimentConfig, threads: int) -> int:
    params = config.pde_params()
    system = assemble(params)
    probe = config.probe_node()
    root, _ = solve_root(system, np.zeros((system.d, system.N)), config.newton)
    cost, rho = config.cost_list[0], config.rho_list[0]
    if cost == 0.0:
        result = hjb_limit_solve(system, [rho], config.newton)
        u, report = result.stages[0][1], result.report
    else:
        problem = PenalizedProblem(
            system, SwitchingCostMatrix.uniform(system.d, cost), rho
        )
        u, report = solve_penalized(problem, field_values(root), config.newton)
        u = field_values(u)
    payload = {
        "case": config.case,
        "c": cost,
        "rho": rho,
        "probe_x": config.probe_point,
        "value": float(u[0, probe]),
        "iterations": report.iterations,
        "final_residual": report.final_residual,
        "runtime_s": report.elapsed_seconds,
        "converged": report.converged,
    }
    _emit(json.dumps(payload, indent=2) + "\n", config)
    return 0 if report.converged else 1


def _cmd_table(config: ExperimentConfig, threads: int) -> int:
    table = run_table(config, threads=threads)
    text = write_table(table, fmt=config.format)
    _emit(text, config)
    ok = all(cell.converged and cell.error is None for cell in table.cells)
    return 0 if ok else 1


def _cmd_regions(config: ExperimentConfig, threads: int) -> int:
    report = extract_regions(config, config.rho_list[0])
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", config)
    # inclusion of the exact regions is the proven property; match is informational
    return 0 if all(r.included for r in report.regions) else 1


def _cmd_verify(config: ExperimentConfig, threads: int) -> int:
    summary = verify(config)
    _emit(json.dumps(summary, indent=2) + "\n", config)
    return 0 if summary["passed"] else 1


def _cmd_hjb(config: ExperimentConfig, threads: int) -> int:
    params = config.pde_params()
    system = assemble(params)
    probe = config.probe_node()
    result = hjb_limit_solve(system, config.rho_list, config.newton)
    stages = []
    previous = None
    for (rho, solution, report), gap in zip(result.stages, result.regime_gaps):
        value = float(solution[0, probe])
        stages.append({
            "rho": rho,
            "probe_x": config.probe_point,
            "value": value,
            "increment": None if previous is None else sup_norm(solution - previous),
            "regime_gap": gap,
            "iterations": report.iterations,
            "runtime_s": report.elapsed_seconds,
            "converged": report.converged,
        })
        previous = solution
    payload = {
        "case": config.case,
        "collapsed_value": float(result.values[probe]),
        "gap_bound": result.gap_bound,
        "stages": stages,
    }
    if config.format == "csv":
        lines = ["rho,probe_x,value,increment,regime_gap,iterations,runtime_s,converged"]
        for s in stages:
            lines.append(",".join([
                "%.6g" % s["rho"],
                "%.6g" % s["probe_x"],
                "%.6g" % s["value"],
                "" if s["increment"] is None else "%.6g" % s["increment"],
                "%.6g" % s["regime_gap"],
                str(s["iterations"]),
                "%.4f" % s["runtime_s"],
                "true" if s["converged"] else "false",
            ]))
        _emit("\n".join(lines) + "\n", config)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", config)
    return 0 if all(s["converged"] for s in stages) else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "table": _cmd_table,
    "regions": _cmd_regions,
    "verify": _cmd_verify,
    "hjb": _cmd_hjb,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"qvipen: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](config, args.threads)
    except Exception as exc:
        print(f"qvipen: {args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
