"""Experiment harness and command line: configs, sweeps, regions, output."""
import argparse
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from qvipen import ExperimentConfig, extract_regions, run_table, verify, write_table
from qvipen import cli, experiments
from qvipen.cli import main
from qvipen.experiments import (
    CASES,
    CellRecord,
    TABLE1_COSTS,
    TABLE1_RHO,
    TABLE2_COSTS,
    TABLE2_RHO,
    RegimeRegions,
    RegionReport,
)
from qvipen.core import PenalizedProblem, SwitchingCostMatrix, _obstacles
from qvipen.newton import NewtonConfig, solve_penalized, solve_root
from qvipen.pde import assemble
from qvipen.regularize import hjb_limit_solve

from reference_tables import (
    TWO_REGIME_INCREMENTS,
    TWO_REGIME_ITERATIONS,
    TWO_REGIME_VALUES,
)


@pytest.fixture(scope="module")
def small_table():
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [0.5, 0.125, 0.0], "rho_list": [1e3, 2e3]}
    )
    return config, run_table(config)


# ----------------------------------------------------------------- the config


def test_config_defaults_follow_case():
    config = ExperimentConfig.from_mapping({"case": "three-regime"})
    assert config.probe_point == 1.0
    assert config.rho_list == TABLE2_RHO
    assert config.cost_list == TABLE2_COSTS
    default = ExperimentConfig.from_mapping({})
    assert default.case == "two-regime"
    assert default.probe_point == 0.5
    assert default.rho_list == TABLE1_RHO
    assert default.cost_list == TABLE1_COSTS


@pytest.mark.parametrize("case", sorted(CASES))
def test_config_case_defaults_do_not_depend_on_construction(case):
    direct = ExperimentConfig(case=case)
    assert direct == ExperimentConfig.from_mapping({"case": case})
    spec = CASES[case]
    assert (direct.rho_list, direct.cost_list, direct.probe_point) == (
        spec.rho_list, spec.cost_list, spec.probe_point)


@pytest.mark.parametrize("mapping", [
    {"newton": {"tol": 1e-10}},
    {"newton": None},
    {"newton": 5},
    {"newton": ["tol"]},
    {"newton": {"warp": 9}},
    {"rho_list": "1000"},
    {"case": "custom", "d": 2, "reward_pieces": [[0.75, 1.0, -2.0, 2.0]]},
], ids=["newton-mapping", "newton-none", "newton-int", "newton-list", "newton-unknown-key",
        "rho-list-string", "reward-pieces-lists"])
def test_config_construction_paths_agree(mapping):
    # the constructor used to keep a newton mapping as a dict, split a string
    # grid into characters and store unhashable list pieces; only
    # from_mapping checked these
    def build(make):
        try:
            return make(), None
        except ValueError as exc:
            return None, str(exc)

    direct, direct_error = build(lambda: ExperimentConfig(**mapping))
    read, read_error = build(lambda: ExperimentConfig.from_mapping(mapping))
    assert direct_error == read_error
    assert direct == read
    if direct is not None:
        assert hash(direct) == hash(read)
        assert isinstance(direct.newton, NewtonConfig)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="bogus_key"):
        ExperimentConfig.from_mapping({"bogus_key": 1})
    with pytest.raises(ValueError, match="warp"):
        ExperimentConfig.from_mapping({"newton": {"warp": 9}})


def test_config_rejects_negative_cost_with_diagnostic():
    with pytest.raises(ValueError, match="cost_list\\[1\\] must be a nonnegative finite number, "
                                         "got -1.0"):
        ExperimentConfig.from_mapping({"cost_list": [0.5, -1.0]})


def test_config_validates_grids_and_probe():
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"rho_list": []})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"rho_list": [0.0]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"format": "xml"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"case": "five-regime"})
    with pytest.raises(ValueError):
        # off-grid probe: the mesh holds multiples of 0.02 only
        ExperimentConfig.from_mapping({"probe_point": 0.513})
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping({"case": "custom"})


def test_custom_case_builds_reward():
    config = ExperimentConfig.from_mapping({
        "case": "custom",
        "d": 2,
        "reward_pieces": [[0.75, 1.0, -2.0, 2.0]],
        "cost_list": [0.5],
        "rho_list": [1e3],
        "probe_point": 0.5,
    })
    # same reward as the named two-regime case, so the same probe value
    table = run_table(config)
    assert table.cells[0].value == pytest.approx(3.37521, abs=1e-3)


# ------------------------------------------------------------------ the sweep


def test_small_sweep_matches_references(small_table):
    _, table = small_table
    by_key = {(c.c, c.rho): c for c in table.cells}
    for cost in (0.5, 0.125, 0.0):
        for ri, rho in enumerate((1e3, 2e3)):
            cell = by_key[(cost, rho)]
            # published reference values
            assert cell.value == pytest.approx(TWO_REGIME_VALUES[cost][ri], abs=1e-3)
            assert cell.iterations == TWO_REGIME_ITERATIONS[cost][ri]
            assert cell.converged
            assert cell.error is None
    assert by_key[(0.5, 2e3)].increment == pytest.approx(
        TWO_REGIME_INCREMENTS[0.5][0], abs=5e-4
    )
    assert by_key[(0.5, 1e3)].increment is None


def test_sweep_cells_are_ordered_deterministically(small_table):
    _, table = small_table
    assert [(c.c, c.rho) for c in table.cells] == [
        (0.5, 1e3), (0.5, 2e3), (0.125, 1e3), (0.125, 2e3), (0.0, 1e3), (0.0, 2e3)
    ]


def test_sweep_records_failures_and_continues():
    config = ExperimentConfig.from_mapping({
        "case": "two-regime",
        "cost_list": [0.125],
        "rho_list": [1e3, 2e3],
        # enough iterations for the affine root solve, too few for the cells
        "newton": {"max_iter": 2},
    })
    table = run_table(config)
    assert len(table.cells) == 2
    for cell in table.cells:
        assert not cell.converged
        assert cell.error is not None
        assert cell.value is None


def test_zero_cost_failures_are_recorded_per_cell():
    config = ExperimentConfig.from_mapping({
        "case": "two-regime",
        "cost_list": [0.0],
        "rho_list": [1e3, 2e3, 4e3],
        # the pinned counts are 4, 4, 3: only the last cell fits the budget
        "newton": {"max_iter": 3},
    })
    first, second, last = run_table(config).cells
    for cell in (first, second):
        assert not cell.converged
        assert cell.error is not None
    assert last.converged and last.error is None
    assert last.iterations == 3
    assert last.value == pytest.approx(TWO_REGIME_VALUES[0.0][2], abs=1e-3)
    assert last.increment is None


def test_sweep_reraises_programming_errors(monkeypatch):
    def broken_solve(*args, **kwargs):
        raise ValueError("not a solver failure")

    monkeypatch.setattr(experiments, "solve_penalized", broken_solve)
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [0.5], "rho_list": [1e3]}
    )
    with pytest.raises(ValueError, match="not a solver failure"):
        run_table(config)


def test_zero_cost_regime_gaps_match_the_hjb_limit(small_table):
    config, table = small_table
    result = hjb_limit_solve(assemble(config.pde_params()), config.rho_list, config.newton)
    gaps = [cell.regime_gap for cell in table.cells if cell.c == 0.0]
    assert gaps == result.regime_gaps
    assert all(cell.regime_gap is not None for cell in table.cells)


def test_keep_solutions_stores_fields():
    # run_table always keeps every converged cell's field
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [0.5, 0.0], "rho_list": [1e3, 2e3]}
    )
    table = run_table(config)
    assert set(table.solutions) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert table.solutions[(0, 0)].shape == (2, 100)


# ----------------------------------------------------------------- the output


def test_csv_schema(small_table):
    _, table = small_table
    text = write_table(table, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == (
        "case,c,rho,probe_x,value,increment,iterations,runtime_s,regime_gap,error"
    )
    assert len(lines) == 1 + len(table.cells)
    first = lines[1].split(",")
    assert first[0] == "two-regime"
    assert first[5] == ""  # increment blank on each row's first weight
    runtime = first[7]
    assert len(runtime.split(".")[1]) == 4
    assert first[8] != ""  # a converged cell has a regime gap
    assert first[9] == ""  # and no error


FAILING = {"case": "two-regime", "cost_list": [0.125], "rho_list": [1e3],
           # enough iterations for the affine root solve, too few for the cell
           "newton": {"max_iter": 2}}


def test_a_failed_cell_keeps_its_iterations_and_runtime():
    # both used to be blank, as if the solve had measured nothing
    table = run_table(ExperimentConfig.from_mapping(FAILING))
    (row,) = csv.DictReader(io.StringIO(write_table(table, fmt="csv")))
    (cell,) = json.loads(write_table(table, fmt="json"))["cells"]
    assert row["iterations"] == "2" and cell["iterations"] == 2
    assert isinstance(cell["runtime_s"], float)
    assert row["runtime_s"] == "%.4f" % cell["runtime_s"]
    assert row["error"] == cell["error"]
    assert cell["error"].startswith("no convergence in 2 iterations")
    for name in ("value", "increment", "regime_gap"):
        assert row[name] == "" and cell[name] is None


def test_csv_and_json_carry_the_same_fields(small_table):
    # the CSV used to drop the error, so a failed cell's row gave no cause
    _, table = small_table
    failed = run_table(ExperimentConfig.from_mapping(FAILING)).cells
    pivot = CellRecord(case="two-regime", c=0.5, rho=1e3, probe_x=0.5, value=None,
                       increment=None, iterations=3, runtime_s=0.001,
                       error="factorization failed: zero pivot at regime 0, node 5")
    table = dataclasses.replace(table, cells=table.cells + failed + [pivot])
    rows = list(csv.DictReader(io.StringIO(write_table(table, fmt="csv"))))
    cells = json.loads(write_table(table, fmt="json"))["cells"]
    assert len(rows) == len(cells) == len(table.cells)
    for row, cell in zip(rows, cells):
        assert list(row) == list(cell)
        assert row["error"] == (cell["error"] or "")
    assert rows[-1]["error"] == pivot.error
    assert rows[-2]["error"].startswith("no convergence in 2 iterations")


def test_csv_prints_an_integer_weight_as_a_number(tmp_path, capsys):
    # a JSON config gives rho the int 1000000, printed like the float 1e6
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"case": "two-regime", "cost_list": [0.5],
                                "rho_list": [1000000]}))
    assert main(["table", "--config", str(path)]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["rho"] == "1e+06" and row["c"] == "0.5" and row["iterations"] == "6"


def test_json_prints_an_integer_weight_as_a_float(tmp_path, capsys):
    # a JSON config's int 1000000 used to print as 1000000, and --rho 1e6 as
    # 1000000.0; every weight, cost and probe point is now stored as a float
    path = tmp_path / "config.json"
    for mapping, cost in (({"cost_list": [1], "probe_point": 1}, "1"),
                          ({"cost_list": [0.5]}, "0.5")):
        path.write_text(json.dumps({"case": "two-regime", "rho_list": [1000000], **mapping}))
        assert main(["solve", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        payload = json.loads(from_config)
        assert [type(payload[key]) for key in ("c", "rho", "probe_x")] == [float] * 3
        assert main(["solve", "--case", "two-regime", "--cost", cost, "--rho", "1e6"]) == 0
        from_flags = capsys.readouterr().out
        rho_lines = [[line for line in text.splitlines() if '"rho"' in line]
                     for text in (from_config, from_flags)]
        assert rho_lines == [['  "rho": 1000000.0,']] * 2


def test_csv_deterministic_except_runtime(small_table):
    config, table = small_table
    again = run_table(config)

    def strip_runtime(text):
        rows = [line.split(",") for line in text.strip().split("\n")]
        return [row[:7] + row[8:] for row in rows]

    a = write_table(table, fmt="csv")
    b = write_table(again, fmt="csv")
    assert strip_runtime(a) == strip_runtime(b)


def test_json_output_roundtrips(small_table):
    _, table = small_table
    loaded = json.loads(write_table(table, fmt="json"))
    assert loaded["case"] == "two-regime"
    assert len(loaded["cells"]) == len(table.cells)
    assert loaded["cells"][1]["increment"] == pytest.approx(0.00884, abs=5e-4)


def test_write_table_rejects_unknown_format(small_table):
    _, table = small_table
    with pytest.raises(ValueError):
        write_table(table, fmt="yaml")


# ---------------------------------------------------------------- the regions


@pytest.fixture(scope="module")
def region_config():
    return ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [0.5], "rho_list": [32e3]}
    )


def test_regions_match_exact_at_large_weight(region_config):
    report = extract_regions(region_config, 32e3)
    assert report.match
    assert len(report.regions[0].exact) == 57
    assert all(r.included for r in report.regions)


def test_regions_include_exact_at_small_weight(region_config):
    report = extract_regions(region_config, 1e3)
    assert all(r.included for r in report.regions)


def test_regions_empty_when_cost_exceeds_threshold():
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [49.0], "rho_list": [1e3]}
    )
    # costs above 2*||F(0)||/gamma = 48: the obstacle never binds
    report = extract_regions(config, 1e3)
    assert report.match
    for region in report.regions:
        assert region.exact == ()
        assert region.estimated == ()


def test_regions_reject_zero_cost():
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [0.0], "rho_list": [1e3]}
    )
    with pytest.raises(ValueError):
        extract_regions(config, 1e3)


def test_regions_at_three_regime_largest_weight():
    # the 100*rho reference solve this replaced stalled above residual_tol here
    config = ExperimentConfig.from_mapping(
        {"case": "three-regime", "cost_list": [1 / 64], "rho_list": [128e3]}
    )
    report = extract_regions(config, 128e3)
    assert all(r.included for r in report.regions)
    assert any(r.exact for r in report.regions)


@pytest.fixture(scope="module")
def two_regime_system():
    system = assemble(ExperimentConfig().pde_params())
    root, _ = solve_root(system, np.zeros((system.d, system.N)))
    return system, root


@pytest.mark.parametrize("rho", [1e3, 2e3, 4e3, 8e3, 16e3, 32e3])
@pytest.mark.parametrize("cost", [0.5, 0.125])
def test_exact_regions_equal_a_penalized_reference(two_regime_system, cost, rho):
    # the exact sets come from the QVI solution; a penalized solve at
    # 100*rho with the signed rule gap <= 1e-6 (that solution approaches
    # from below, so binding gaps can be slightly negative) gives the same
    system, root = two_regime_system
    costs = SwitchingCostMatrix.uniform(system.d, cost)
    u_ref, _ = solve_penalized(PenalizedProblem(system, costs, 100 * rho), root)
    gap = u_ref - _obstacles(u_ref, costs)[0]
    reference = [tuple(int(l) for l in np.nonzero(mask)[0]) for mask in gap <= 1e-6]
    config = ExperimentConfig.from_mapping(
        {"case": "two-regime", "cost_list": [cost], "rho_list": [rho]}
    )
    report = extract_regions(config, rho)
    assert [r.exact for r in report.regions] == reference


def test_region_report_serializes(region_config):
    report = extract_regions(region_config, 32e3)
    payload = json.loads(json.dumps(dataclasses.asdict(report)))
    assert payload["match"] is True
    assert payload["regions"][0]["regime"] == 0


# ----------------------------------------------------------------- the checks


def test_verify_suite_passes():
    summary = verify()
    assert summary["passed"]
    names = {check["name"] for check in summary["checks"]}
    assert {"tiny-instance-closed-form", "solver-agreement", "monotonicity-probes",
            "a-priori-bound", "zero-cost-gap-halving"} <= names
    assert all(check["passed"] for check in summary["checks"])


def test_verify_reports_a_failed_bound_solve():
    # enough iterations for the affine root solve, too few for the penalized one
    summary = verify(ExperimentConfig.from_mapping({"newton": {"max_iter": 2}}))
    assert not summary["passed"]
    check = next(c for c in summary["checks"] if c["name"] == "a-priori-bound")
    assert not check["passed"]
    assert check["detail"].startswith("MaxIterExceeded at ")


def test_verify_gap_check_carries_the_failed_cell_error():
    summary = verify(ExperimentConfig.from_mapping({"newton": {"max_iter": 2}}))
    check = next(c for c in summary["checks"] if c["name"] == "zero-cost-gap-halving")
    assert not check["passed"]
    assert check["detail"].startswith("rho = 1000: no convergence in 2 iterations")


def test_verify_names_the_exception_type_and_location(monkeypatch):
    def broken_march(prob, **kwargs):
        raise RuntimeError("march broke")

    line = broken_march.__code__.co_firstlineno + 1
    monkeypatch.setattr(experiments, "pseudo_time_solve", broken_march)
    summary = verify()
    assert not summary["passed"]
    check = next(c for c in summary["checks"] if c["name"] == "solver-agreement")
    assert not check["passed"]
    assert check["detail"].startswith("RuntimeError at ")
    assert f"test_experiments.py:{line}: march broke" in check["detail"]


def test_verify_reports_a_monotonicity_probe_that_raises(monkeypatch):
    # the probe was the one check run without a handler: its error ended verify
    def broken_probe(system, u, v):
        raise RuntimeError("probe broke")

    monkeypatch.setattr(experiments, "monotonicity_slack", broken_probe)
    summary = verify()
    assert not summary["passed"]
    assert [c["name"] for c in summary["checks"]] == [
        "tiny-instance-closed-form", "solver-agreement", "monotonicity-probes",
        "a-priori-bound", "zero-cost-gap-halving"]
    probe = summary["checks"][2]
    assert not probe["passed"]
    assert probe["detail"].startswith("RuntimeError at ")
    assert probe["detail"].endswith(": probe broke")
    assert all(c["passed"] for c in summary["checks"] if c is not probe)


# -------------------------------------------------------------------- the CLI


def test_cli_table_runs_small_grid(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["table", "--case", "two-regime", "--cost", "0.5", "--rho",
               "1000,2000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "3.37521"


@pytest.mark.parametrize("argv", [
    ["regions", "--case", "two-regime", "--cost", "0.125", "--rho", "1000"],
    ["regions", "--case", "three-regime", "--cost", "0.015625", "--rho", "128000"],
    ["table", "--case", "three-regime", "--cost", "0.25", "--rho", "4000,8000"],
], ids=["regions-two-regime", "regions-three-regime", "table-three-regime"])
def test_cli_runs_each_command_to_exit_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_cli_table_writes_its_failed_cell_to_the_csv(tmp_path, capsys):
    # the table still writes every cell, the failed one with its error, and
    # exits 1
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"newton": {"max_iter": 2}}))
    out = tmp_path / "table.csv"
    argv = ["table", "--config", str(config_path), "--cost", "0.125", "--rho", "1000",
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 1
    text = out.read_text()
    assert "no convergence in 2 iterations" in text
    assert text.splitlines()[0] == ("case,c,rho,probe_x,value,increment,iterations,"
                                    "runtime_s,regime_gap,error")


def test_cli_reads_config_file(tmp_path):
    out = tmp_path / "table.json"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "case": "two-regime",
        "cost_list": [0.125],
        "rho_list": [1e3],
        "format": "json",
        "output_path": str(out),
    }))
    assert main(["table", "--config", str(config_path)]) == 0
    loaded = json.loads(out.read_text())
    assert loaded["cells"][0]["value"] == pytest.approx(5.26287, abs=1e-3)


def test_cli_flags_override_config(tmp_path):
    config_path = tmp_path / "config.json"
    out = tmp_path / "o.csv"
    config_path.write_text(json.dumps({"case": "two-regime", "cost_list": [0.5]}))
    rc = main(["table", "--config", str(config_path), "--cost", "0.125",
               "--rho", "1000", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[1] == "0.125"


def test_cli_rejects_bad_configs(tmp_path, capsys):
    bad_cost = tmp_path / "bad.json"
    bad_cost.write_text(json.dumps({"cost_list": [0.5, -1.0]}))
    assert main(["table", "--config", str(bad_cost)]) == 2
    err = capsys.readouterr().err
    assert "cost_list[1] must be a nonnegative finite number, got -1.0" in err
    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"volume": 11}))
    assert main(["table", "--config", str(bad_key)]) == 2
    assert "volume" in capsys.readouterr().err
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text(json.dumps([0.5]))
    assert main(["table", "--config", str(not_an_object)]) == 2
    assert "config file must hold a JSON object" in capsys.readouterr().err
    with pytest.raises(SystemExit) as usage:
        main(["table", "--case", "two-regime", "--threads", "1"])
    assert usage.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["table", "--rho", "1,x"])
    assert usage.value.code == 2
    assert "expected comma-separated numbers, got '1,x'" in capsys.readouterr().err


@pytest.mark.parametrize("mapping, message", [
    ({"newton": {"max_iter": 1e2}}, "max_iter must be an integer"),
    ({"case": "custom", "d": 2.0, "reward_pieces": [[0.75, 1.0, -2.0, 2.0]]},
     "d must be an integer"),
    ({"N": 50.5}, "N must be an integer"),
    ({"case": "two-regime", "reward_pieces": [[0.75, 1.0, -2.0, 2.0]]},
     "reward_pieces can only be set for the custom case"),
    ({"case": "three-regime", "d": 3}, "d can only be set for the custom case"),
])
def test_cli_rejects_non_integer_sizes_and_custom_only_fields(tmp_path, capsys, mapping, message):
    # each used to run: a non-integer failed mid-solve with exit 1 (N = 50.5
    # built a 51-node mesh), and a named case ignored reward_pieces or ran
    # d regimes under its own label
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    assert main(["solve", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("pieces, message", [
    ([[1, 2]], "reward piece 0 is (1, 2): need four entries (lo, hi, slope, intercept)"),
    ([[0, 1, 1, 0], [0.5, 1.5, 1, 0]], "overlap"),
    ([[1.0, 0.5, 1, 0]], "reward piece 0 is (1.0, 0.5, 1.0, 0.0): need lo < hi"),
    ([[0.0, float("nan"), 1, 0]], "reward piece 0 hi must be a finite number, got nan"),
    ([1], "reward piece 0 is 1: need four entries"),
    ([[0, 1, 1, 0], ["a", 1, 1, 0]], "reward piece 1 lo must be a finite number, got 'a'"),
    ([[True, 2, 1, 1]], "reward piece 0 lo must be a finite number, got True"),
    ([["0.5", 1, 1, 0]], "reward piece 0 lo must be a finite number, got '0.5'"),
    ([[0, 1, False, 0]], "reward piece 0 slope must be a finite number, got False"),
], ids=["short", "overlapping", "inverted", "nan", "not-a-sequence", "not-a-number",
        "bool-lo", "numeric-string", "bool-slope"])
def test_cli_rejects_invalid_reward_pieces(tmp_path, capsys, pieces, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"case": "custom", "d": 2, "reward_pieces": pieces}))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "reward piece" in err and message in err


@pytest.mark.parametrize("command, mapping, message", [
    ("table", {"cost_list": 0.5}, "cost_list must be a list, got float 0.5"),
    ("solve", {"case": "custom", "d": 2, "reward_pieces": 3},
     "reward_pieces must be a list, got int 3"),
    ("solve", {"rho_list": "1000"}, "rho_list must be a list, got str '1000'"),
    ("hjb", {"cost_list": 0.5}, "cost_list must be a list, got float 0.5"),
], ids=["scalar-cost", "scalar-pieces", "string-rho", "hjb-scalar-cost"])
def test_cli_rejects_a_list_field_that_is_not_a_list(tmp_path, capsys, command, mapping, message):
    # these failed with "not iterable", and the string was split into
    # characters before a numpy casting error
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("mapping, message", [
    ({"cost_list": [0.5, "0.5"]}, "cost_list[1] must be a nonnegative finite number, got '0.5'"),
    ({"cost_list": []}, "cost_list must be nonempty"),
    ({"rho_list": [None]}, "rho_list[0] must be a positive finite number, got None"),
    ({"rho_list": [True]}, "rho_list[0] must be a positive finite number, got True"),
    ({"newton": ["tol"]}, "newton must be a mapping of max_iter, residual_tol, tol, "
                          "got list ['tol']"),
    ({"newton": 5}, "newton must be a mapping of max_iter, residual_tol, tol, got int 5"),
    ({"probe_point": float("nan")}, "probe_point must be a finite number, got nan"),
    ({"probe_point": float("inf")}, "probe_point must be a finite number, got inf"),
    ({"probe_point": "0.5"}, "probe_point must be a finite number, got '0.5'"),
    ({"output_path": 0}, "output_path must be a string, got int 0"),
    ({"output_path": 5}, "output_path must be a string, got int 5"),
    ({"output_path": ""}, "output_path must name a file, got ''"),
], ids=["string-cost", "empty-cost", "null-rho", "bool-rho", "list-newton", "int-newton",
        "nan-probe", "inf-probe", "string-probe", "zero-output-path", "int-output-path",
        "empty-output-path"])
def test_cli_names_the_field_of_a_bad_entry(tmp_path, capsys, mapping, message):
    # each printed a message that named no field: a numpy isfinite casting
    # error, "argument after ** must be a mapping", "'int' object is not
    # iterable", "cannot convert float NaN to integer" or "unsupported operand
    # type(s) for /"; an infinite probe raised OverflowError (exit 1), a
    # bool weight ran as rho = 1, and output_path 0 or "" printed to stdout
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_cli_table_names_a_string_cost(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cost_list": ["0.5"]}))
    assert main(["table", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "cost_list[0] must be a nonnegative finite number, got '0.5'" in err


@pytest.mark.parametrize("flags, message", [
    (["--out", ""], "output_path must name a file, got ''"),
    (["--case", ""], "unknown case ''"),
], ids=["empty-out", "empty-case"])
def test_cli_rejects_an_empty_flag(monkeypatch, capsys, flags, message):
    # both were taken as not given: the record went to stdout, or the
    # two-regime case ran, with exit 0
    def no_solve(config):
        raise AssertionError("run_table ran")

    monkeypatch.setattr(cli, "run_table", no_solve)
    assert main(["solve", *flags]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("newton, expected", [
    ({}, {"tol": 1e-9}),
    ({"newton": None}, {"tol": 1e-9}),
    ({"newton": {"max_iter": 7, "tol": 1e-3}}, {"max_iter": 7, "tol": 1e-9}),
    ({"newton": 5}, "newton must be a mapping of max_iter, residual_tol, tol, got int 5"),
    ({"newton": ["tol"]}, "newton must be a mapping of max_iter, residual_tol, tol, "
                          "got list ['tol']"),
], ids=["absent", "null", "mapping", "int", "list"])
def test_cli_tol_merges_into_the_config_newton(monkeypatch, tmp_path, capsys, newton, expected):
    # with --tol, an int or list newton failed with "'int' object is not
    # iterable" or "dictionary update sequence element #0", and null with
    # "'NoneType' object is not iterable"
    seen = []

    def record(config):
        seen.append(config.newton)
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "run_table", record)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(newton))
    status = main(["solve", "--config", str(path), "--tol", "1e-9"])
    err = capsys.readouterr().err
    if isinstance(expected, str):
        assert status == 2 and not seen
        assert "configuration error" in err and expected in err
    else:
        assert status == 1 and seen == [NewtonConfig(**expected)]


def test_cli_flags_are_config_keys():
    # _load_config passes every given flag but these to ExperimentConfig as is
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, command in commands.choices.items():
        assert command.argument_default is argparse.SUPPRESS, name
        dests = {a.dest for a in command._actions} - {"help", "command", "config", "tol"}
        assert dests and dests <= keys, (name, sorted(dests - keys))


@pytest.mark.parametrize("newton, message", [
    ({"tol": "1e-9"}, "tol must be a positive finite number, got '1e-9'"),
    ({"residual_tol": True}, "residual_tol must be a positive finite number, got True"),
    ({"tol": float("inf")}, "tol must be a positive finite number, got inf"),
    ({"max_iter": True}, "max_iter must be an integer, got True"),
], ids=["string-tol", "bool-residual-tol", "inf-tol", "bool-max-iter"])
def test_cli_names_the_newton_setting_it_rejects(tmp_path, capsys, newton, message):
    # a string tol printed "'>' not supported between instances of 'str' and
    # 'int'", and max_iter: true ran one iteration and exited 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"newton": newton}))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("command", ["solve", "regions", "verify"])
def test_cli_format_is_a_usage_error_where_output_is_json_only(command, capsys):
    with pytest.raises(SystemExit) as usage:
        main([command, "--case", "two-regime", "--format", "csv"])
    assert usage.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_solve_reports_probe_value(tmp_path):
    out = tmp_path / "solve.json"
    rc = main(["solve", "--case", "three-regime", "--cost", "0.25", "--rho",
               "4000", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(6.849917, abs=1e-3)
    assert "converged" not in payload and payload["error"] is None


def test_cli_solve_reports_a_failed_cell(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "case": "two-regime", "cost_list": [0.125], "rho_list": [1e3],
        "newton": {"max_iter": 2},
    }))
    assert main(["solve", "--config", str(config_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "converged" not in payload
    assert payload["value"] is None
    assert payload["error"]


def test_cli_regions_emits_json(tmp_path):
    out = tmp_path / "regions.json"
    rc = main(["regions", "--case", "two-regime", "--cost", "0.5", "--rho",
               "32000", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["match"] is True


def region_report(included):
    """A report whose estimate never matches; regime 0 misses node 5 unless included."""
    exact = (3,) if included else (3, 5)
    region = RegimeRegions(regime=0, exact=exact, estimated=(3, 4))
    return RegionReport(rho_used=1e3, C0_estimate=1.0, threshold=0.1, regions=[region])


@pytest.mark.parametrize("included, status", [(True, 0), (False, 1)])
def test_cli_regions_exit_follows_inclusion_not_match(monkeypatch, capsys, included, status):
    monkeypatch.setattr(cli, "extract_regions", lambda config, rho: region_report(included))
    assert main(["regions", "--case", "two-regime", "--cost", "0.5"]) == status
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is False
    assert payload["regions"][0]["included"] is included


@pytest.mark.parametrize("flags, message", [
    (["--cost", "0"], "cost must be a positive finite number, got 0.0"),
    (["--rho", "1"], "rho must be a finite number greater than 1"),
], ids=["cost-0", "rho-1"])
def test_cli_regions_rejects_unusable_inputs_before_solving(monkeypatch, capsys, flags, message):
    # both used to exit 1 with "regions failed"
    def no_solve(config, rho):
        raise AssertionError("extract_regions ran")

    monkeypatch.setattr(cli, "extract_regions", no_solve)
    assert main(["regions", "--case", "two-regime", *flags]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("command", ["solve", "table"])
@pytest.mark.parametrize("target, reason", [
    ("missing/out.csv", "does not exist"),
    (".", "it is a directory"),
], ids=["missing-directory", "directory"])
def test_cli_rejects_an_unwritable_output_path_before_solving(
        monkeypatch, tmp_path, capsys, command, target, reason):
    # a missing directory used to be found after the solve, as "solve failed"
    # with exit 1
    def no_solve(config):
        raise AssertionError("run_table ran")

    monkeypatch.setattr(cli, "run_table", no_solve)
    out = tmp_path / target
    argv = [command, "--case", "two-regime", "--cost", "0.5", "--rho", "1000", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(str(out)) in err and reason in err


def test_cli_hjb_rejects_a_cost(capsys):
    # hjb always runs cost 0; it used to accept --cost and ignore it
    with pytest.raises(SystemExit) as usage:
        main(["hjb", "--case", "two-regime", "--cost", "0.5"])
    assert usage.value.code == 2
    assert "--cost" in capsys.readouterr().err


@pytest.mark.parametrize("cost_list, status", [
    ([0.5], 2), ([0, 0.25], 2), ([0], 0), (None, 0),
], ids=["nonzero", "mixed", "zero", "absent"])
def test_cli_hjb_config_accepts_only_the_zero_cost_row(tmp_path, capsys, cost_list, status):
    # a config file's cost_list used to be ignored, like the --cost flag
    mapping = {"case": "two-regime", "rho_list": [1000]}
    if cost_list is not None:
        mapping["cost_list"] = cost_list
    path = tmp_path / "hjb.json"
    path.write_text(json.dumps(mapping))
    assert main(["hjb", "--config", str(path), "--format", "csv"]) == status
    out, err = capsys.readouterr()
    if status:
        assert "configuration error" in err and "cost_list" in err
    else:
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["0"]


def test_cli_hjb_reports_zero_cost_path(tmp_path):
    out = tmp_path / "hjb.json"
    rc = main(["hjb", "--case", "two-regime", "--rho", "1000,2000,4000",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    values = [cell["value"] for cell in payload["cells"]]
    assert values[0] == pytest.approx(6.38903, abs=1e-3)
    assert values[2] == pytest.approx(6.49624, abs=1e-3)


def test_cli_hjb_is_the_zero_cost_row(capsys):
    rc = main(["hjb", "--case", "two-regime", "--rho", "1000,2000", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith(",runtime_s,regime_gap,error")
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "0"]


def test_cli_verify_exits_by_outcome(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--case", "two-regime", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True


def test_cli_stdout_default(capsys):
    rc = main(["solve", "--case", "two-regime", "--cost", "0.5", "--rho", "1000"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(3.37521, abs=1e-3)
