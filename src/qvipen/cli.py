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
import os
import sys

from .experiments import (
    ExperimentConfig,
    _check_region_inputs,
    _json_text,
    extract_regions,
    run_table,
    verify,
    write_table,
)

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
        ("solve", "solve the first (cost, weight) cell and print its record as JSON"),
        ("table", "run the full (cost, weight) sweep"),
        ("regions", "extract switching regions and compare with the exact ones"),
        ("verify", "run the oracle-agreement and invariant suites"),
        ("hjb", "run the zero-cost row of the sweep along the weight schedule"),
    ):
        # a flag that is not given sets nothing, so the config file's value stands
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", help="JSON file with experiment settings")
        cmd.add_argument("--case", help="two-regime | three-regime | custom")
        cmd.add_argument("--out", dest="output_path", help="output file path (default: stdout)")
        if name in ("table", "hjb"):
            cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        cmd.add_argument("--rho", dest="rho_list", type=_float_list,
                         help="comma-separated weights")
        if name != "hjb":  # hjb always runs the cost-0 row
            cmd.add_argument("--cost", dest="cost_list", type=_float_list,
                             help="comma-separated costs")
        cmd.add_argument("--tol", type=float, help="Newton increment tolerance")
    return parser


def _load_config(args) -> ExperimentConfig:
    flags = vars(args)
    mapping = {}
    if "config" in flags:
        with open(flags["config"]) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        mapping.update(loaded)
    mapping.update((key, value) for key, value in flags.items()
                   if key not in ("command", "config", "tol"))
    newton = mapping.get("newton")
    # any other newton is left for from_mapping to reject by name
    if "tol" in flags and (newton is None or isinstance(newton, dict)):
        mapping["newton"] = {**(newton or {}), "tol": flags["tol"]}
    config = ExperimentConfig.from_mapping(mapping)
    # hjb has no --cost flag, so a cost_list here came from the config file
    if (args.command == "hjb" and mapping.get("cost_list") is not None
            and any(c != 0 for c in config.cost_list)):
        raise ValueError(f"hjb runs the cost-0 row only; cost_list must be [0] "
                         f"or absent, got {list(config.cost_list)!r}")
    return config


def _check_output_path(path: str) -> None:
    """Reject an output path that cannot be written, before anything is solved."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        reason = f"directory {folder!r} does not exist"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValueError(f"cannot write output to {path!r}: {reason}")


def _emit(output, config: ExperimentConfig) -> None:
    """Write finished text, or a record (a dataclass or a dict) as JSON."""
    text = output if isinstance(output, str) else _json_text(output)
    if config.output_path is not None:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run(command: str, config: ExperimentConfig):
    """Run one subcommand; return its output and whether it passed."""
    if command == "verify":
        summary = verify(config)
        return summary, summary["passed"]
    if command == "regions":
        report = extract_regions(config, config.rho_list[0])
        # inclusion of the exact regions is the proven property; match is informational
        return report, all(r.included for r in report.regions)
    if command == "solve":
        config = dataclasses.replace(config, cost_list=config.cost_list[:1],
                                     rho_list=config.rho_list[:1])
    elif command == "hjb":
        config = dataclasses.replace(config, cost_list=(0.0,))
    table = run_table(config)
    output = table.cells[0] if command == "solve" else write_table(table, fmt=config.format)
    return output, all(cell.converged for cell in table.cells)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "regions":
            _check_region_inputs(config.cost_list[0], config.rho_list[0])
        if config.output_path is not None:
            _check_output_path(config.output_path)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"qvipen: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        output, ok = _run(args.command, config)
        _emit(output, config)
    except Exception as exc:
        print(f"qvipen: {args.command} failed: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
