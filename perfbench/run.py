"""Closed-loop benchmark of qvipen: one process, one thread, one caller.

    python3 perfbench/run.py --workload {tables,mesh,sweeps,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
print every end-to-end metric by name and unit. Results and the environment
are also written to ``perfbench/out/``; a traced run writes its spans there.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, so the tracing overhead is measured in one process.
"""
import os

# the benchmark is single-threaded by design; pin BLAS/OpenMP pools to one
# thread (never more than nproc) before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
IMPORT_REPS = 5
# (name, unit) of every end-to-end metric, in print order; BENCHMARK.json
# lists those that are never zero and steady enough to carry a bound. The
# *_ref metrics measure time in units of the reference task (reference.py)
# timed around each op, which cancels the host's speed drift.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("solves_per_s", "1/s"),
    ("newton_iters_per_op", "count"),
    ("iter_ms", "ms"),
    ("failed_frac", "ratio"),
    ("max_ref_err", "abs"),
    ("peak_rss_mb", "MB"),
    ("ref_ms", "ms"),
    ("op_p50_ref", "ref"),
    ("op_tail_ref", "ref"),
    ("iter_ref", "ref"),
    ("solves_per_ref", "1/ref"),
)


_TIMED_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "start = time.perf_counter(); import qvipen; "
                 "print(time.perf_counter() - start)")


def _import_package():
    """Import qvipen from this checkout's src/; None when it is absent.

    Returns the module and the median import time over this import and
    IMPORT_REPS - 1 fresh interpreters, which damps one-off stalls.
    """
    src = ROOT / "src"
    if not (src / "qvipen" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qvipen
    times = [time.perf_counter() - start]
    if Path(qvipen.__file__).resolve().parent != (src / "qvipen").resolve():
        return None, 0.0
    for _ in range(IMPORT_REPS - 1):
        proc = subprocess.run([sys.executable, "-c", _TIMED_IMPORT, str(src)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return qvipen, statistics.median(times)


def _environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _one_op(workload, inputs, tracer, k, warmup=False):
    """Run and check op ``k``; a failure is recorded, never raised."""
    drawn = workload.draw(k)
    before = {key: tracer.counts[key] for key in ("newton.solves", "newton.iters")}
    tracer.op_id = k
    sid = tracer.open("bench.op") if tracer.spans else None
    start = time.perf_counter()
    out = error = None
    try:
        out = workload.op(inputs, drawn)
    except Exception as exc:  # an op failure is data, the run goes on
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    elapsed = time.perf_counter() - start
    if sid is not None:
        tracer.close(sid)
    record = {"op": k, "s": elapsed, "warmup": warmup,
              "solves": tracer.counts["newton.solves"] - before["newton.solves"],
              "iters": tracer.counts["newton.iters"] - before["newton.iters"]}
    passed, err, detail = False, float("nan"), error
    if error is None:
        tracer.paused = True
        try:
            passed, err, detail = workload.check(inputs, out)
        except Exception as exc:  # a broken check fails the op, not the run
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            tracer.paused = False
    record.update(passed=bool(passed), err=float(err), detail=detail)
    if error is None and hasattr(workload, "counts"):
        for key, value in workload.counts(out).items():
            tracer.counts[key] += value
    return record


def _measure(workload, inputs, tracer, reference, seconds, first_op, warmup):
    """Closed loop for ``seconds`` after an optional warm-up op.

    The reference task runs before the first op and after every op; each op
    records the mean of the two reference times around it. Returns the op
    records (warm-up first, if any) and the loop's wall time less the time
    spent in the reference task.
    """
    before = reference.run()
    ref_total = 0.0

    def step(k, warm):
        nonlocal before, ref_total
        record = _one_op(workload, inputs, tracer, k, warm)
        after = reference.run()
        ref_total += after
        record["ref_s"] = (before + after) / 2
        before = after
        return record

    records = [step(first_op, True)] if warmup else []
    k = first_op + len(records)
    ref_total = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        records.append(step(k, False))
        k += 1
        if time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - start - ref_total


def _tail(times):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than 20 samples
    that percentile would not be above the median, so the maximum is
    reported instead, flagged by its zero samples beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def _end_to_end(records, setup_s, loop_s):
    timed = [r for r in records if not r["warmup"]]
    times = [r["s"] for r in timed]
    rel = [r["s"] / r["ref_s"] for r in timed]
    iters = sum(r["iters"] for r in timed)
    solves = sum(r["solves"] for r in timed)
    tail, pct, beyond = _tail(times)
    failed = sum(not r["passed"] for r in records)
    errs = [r["err"] for r in records if r["passed"]]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(timed) / loop_s,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "solves_per_s": solves / loop_s,
        "newton_iters_per_op": iters / len(timed),
        # a ratio of sums: on `oracle` both op time and iterations vary with
        # the drawn instance, and per-op ratios would scatter
        "iter_ms": 1e3 * sum(times) / iters if iters else 0.0,
        "failed_frac": failed / len(records),
        "max_ref_err": max(errs) if errs else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_ms": 1e3 * statistics.median(r["ref_s"] for r in timed),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": _tail(rel)[0],
        "iter_ref": sum(rel) / iters if iters else 0.0,
        "solves_per_ref": solves / sum(rel),
    }, {"tail_percentile": pct, "tail_samples_beyond": beyond, "timed_ops": len(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qvipen, import_s = _import_package()
    if qvipen is None:
        print(f"qvipen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import reference
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    build_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.setup()
        build_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(build_s)

    yardstick = reference.Reference()
    phase_s = args.seconds / 2 if args.trace else args.seconds
    with spans.Tracer(spans=False).installed() as tracer:
        records, loop_s = _measure(workload, inputs, tracer, yardstick, phase_s, 0, True)
    e2e, tail_info = _end_to_end(records, setup_s, loop_s)
    layer = None
    all_records = list(records)
    if args.trace:
        with spans.Tracer(spans=True).installed() as tracer:
            sid = tracer.open("bench.setup")
            workload.setup()
            tracer.close(sid)
            tracer.reset_counts()
            # replay the untraced phase's ops, so both phases time the same inputs
            traced, _ = _measure(workload, inputs, tracer, yardstick, phase_s, 1, False)
        all_records += traced
        layer = tracer.layer_metrics(len(traced))
        layer["trace.op_s_p50"] = statistics.median(r["s"] for r in traced)
        layer["trace.untraced_op_s_p50"] = e2e["op_s_p50"]
        # compared in reference units, so host speed drift between the two
        # halves does not show as overhead
        traced_rel = statistics.median(r["s"] / r["ref_s"] for r in traced)
        layer["trace.overhead_frac"] = traced_rel / e2e["op_p50_ref"] - 1.0
        OUT.mkdir(exist_ok=True)
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        n_spans = tracer.write_spans(span_path)

    failed = sum(not r["passed"] for r in all_records)
    units = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {tail_info['timed_ops']} (+1 warm-up)")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {e2e[name]:.6g} {unit}")
    print(f"  op_s_tail is p{tail_info['tail_percentile']:.1f} of "
          f"{tail_info['timed_ops']} ops, {tail_info['tail_samples_beyond']} beyond it")
    for r in all_records:
        if not r["passed"]:
            print(f"  FAILED op {r['op']}: {r['detail']}")
    if layer is not None:
        print(f"  per-layer, mean per op over {len(all_records) - len(records)} traced ops "
              f"({n_spans} spans in {span_path.relative_to(ROOT)}):")
        for name, value in layer.items():
            print(f"    {name:<36} {value:.6g}")
        print(f"  tracing overhead on op_p50_ref: {layer['trace.overhead_frac']:+.1%}")

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    section = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in section}
    if not args.trace:
        for name, entry in metrics.items():
            if entry["unit"] != units[name]:
                raise RuntimeError(f"{name}: unit {entry['unit']} in BENCHMARK.json, "
                                   f"{units[name]} here")
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "end_to_end": {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END},
        "tail": tail_info, "per_layer": layer,
        "ops": all_records,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
