"""privlp benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload grid-sweep --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Workloads: grid-sweep, lp-sweep, private-solve (see perfbench/README.md).
``all`` runs each workload in its own child process, one after another, so
that each one's set-up time and peak memory are its own. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Every other line is for people.
"""
from __future__ import annotations

import os

# One closed-loop caller on a small shared machine: BLAS worker threads would
# compete with it and add noise. Must be set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_PASSES = 2
# Tail latency: the highest of these percentiles with at least TAIL_BEYOND samples above
# it, else the median. The ladder stops at p95: on a shared 2-core VM the p99 of
# private-solve varied by 12% between runs and p95 by 3.5%, and the maximum of a
# handful of sweeps varied more.
TAIL_LADDER = (95.0, 90.0)
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MB"}

# Per-layer metrics: (span name, statistic) pairs read from the spans.
SPAN_STATS = (
    ("simplex.solve_lp", ("calls", "self_s", "p50_us")),
    ("simplex.phase1_feasible", ("calls", "self_s")),
    ("simplex.max_norm_point", ("calls", "self_s")),
    ("simplex.enumerate_vertices", ("calls", "self_s")),
    ("accuracy.cost_bound", ("calls", "self_s")),
    ("accuracy.hoffman_constant", ("calls", "self_s")),
    ("accuracy.xi_term", ("calls", "self_s")),
    ("mechanism.privatize_matrix", ("calls", "self_s", "p50_us")),
    ("seeds.row_stream", ("calls", "self_s")),
    ("problem.load_problem", ("calls", "self_s")),
    ("problem.validate", ("calls", "self_s")),
    ("cmdp.synthesize_policy", ("calls", "self_s", "p50_us")),
    ("cmdp.value_function", ("calls", "self_s")),
    ("cmdp.build_gridworld", ("self_s",)),
    ("experiment.run_sweep", ("self_s",)),
    ("cli.main", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us"}
# Per-layer metrics read from counters and pass times rather than span statistics.
OTHER_LAYER_UNITS = {"simplex.solve_lp.nonoptimal": "count", "accuracy.xi_clipped": "count",
                     "mechanism.clip_frac": "fraction", "trace.wall_s": "s",
                     "trace.overhead_frac": "fraction"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in SPAN_STATS for stat in stats}
    units.update(OTHER_LAYER_UNITS)
    return units


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile ``q`` of ascending ``ordered``."""
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def tail(latencies) -> tuple[str, float]:
    """(label, value) of the tail latency."""
    ordered = sorted(latencies)
    for q in TAIL_LADDER:
        if len(ordered) - math.ceil(len(ordered) * q / 100) >= TAIL_BEYOND:
            return f"p{q:g}", percentile(ordered, q)
    return "p50", statistics.median(ordered)


def timed(fn, *args):
    """Call ``fn`` between two calibration kernels: (result, raw seconds, reference-speed factor)."""
    before = calibration.kernel()
    start = perf_counter()
    result = fn(*args)
    raw = perf_counter() - start
    return result, raw, calibration.scale(before, calibration.kernel())


def measure(workload, seconds: float, reference: dict, tracer: spans.Tracer | None = None) -> dict:
    """Run timed passes for about ``seconds`` (checks included), then stop.

    Times are kept raw and at reference speed (see calibration.py). With a
    tracer, passes alternate untraced and traced, so a drift in the
    machine's speed during the run falls on both kinds alike.
    """
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    latencies, raw_latencies = [], []
    checks = workloads.CheckResult()
    traced_needed = MIN_PASSES if tracer is not None else 0
    start = perf_counter()
    index = 1
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install(vars(workload.pl), workloads.OBSERVERS)
            workload.tracer = tracer
        ops, raw, factor = timed(workload.run_pass, index)
        if traced:
            tracer.uninstall()
            workload.tracer = spans.NullTracer()
        walls[traced].append(raw * factor)
        raw_walls[traced].append(raw)
        latencies.extend(op.latency_s * factor for op in ops)
        raw_latencies.extend(op.latency_s for op in ops)
        checks.add(workload.check(ops, reference))
        elapsed = perf_counter() - start
        if (len(walls[False]) >= MIN_PASSES and len(walls[True]) >= traced_needed
                and elapsed * (index + 1) / index > seconds):
            break
        index += 1
    return {"walls": walls[False], "traced_walls": walls[True], "raw_walls": raw_walls[False],
            "raw_traced_walls": raw_walls[True], "latencies": latencies,
            "raw_latencies": raw_latencies, "checks": checks}


def setup(name: str, seed: int, work: Path):
    """Import privlp and build the workload's inputs, SETUP_REPEATS times.

    Returns the last workload and the median set-up time, at reference speed and raw.
    """
    def build():
        return workloads.WORKLOADS[name](workloads.import_privlp(ROOT / "src"), seed, work, ROOT)

    scaled, raws = [], []
    for _ in range(SETUP_REPEATS):
        workload, raw, factor = timed(build)
        scaled.append(raw * factor)
        raws.append(raw)
    return workload, statistics.median(scaled), statistics.median(raws)


def environment() -> dict:
    """Machine and software record printed with every result."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "git_commit": commit}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(walls, latencies, setup_s: float) -> dict:
    """setup_s, wall_s, op_ms_p50 and op_ms_tail from one set of times."""
    _, tail_s = tail(latencies)
    return {"setup_s": setup_s, "wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(latencies) * 1e3, "op_ms_tail": tail_s * 1e3}


def end_to_end(run: dict, setup_s: float) -> dict:
    values = timings(run["walls"], run["latencies"], setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(tracer: spans.Tracer, run: dict) -> tuple[dict, float]:
    """Layer metrics per traced pass, and the sum of the layers' self times per pass."""
    passes = len(run["traced_walls"])
    summary = spans.summarize(tracer.spans)
    values = {}
    for name, stats in SPAN_STATS:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "p50_us": 0.0})
        for stat in stats:
            values[f"{name}.{stat}"] = entry[stat] if stat == "p50_us" else entry[stat] / passes
    layer_self = sum(summary.get(name, {"self_s": 0.0})["self_s"] for name, _ in SPAN_STATS) / passes
    counters = tracer.counters
    privatized = counters["mechanism.privatized"]
    values.update({
        "simplex.solve_lp.nonoptimal": counters["simplex.solve_lp.nonoptimal"] / passes,
        "accuracy.xi_clipped": counters["accuracy.xi_clipped"] / passes,
        "mechanism.clip_frac": counters["mechanism.clipped"] / privatized if privatized else 0.0,
        "trace.wall_s": sum(run["raw_traced_walls"]) / passes,
        "trace.overhead_frac":
            statistics.median(run["traced_walls"]) / statistics.median(run["walls"]) - 1.0,
    })
    return {name: metric(values[name], unit) for name, unit in per_layer_units().items()}, layer_self


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s, raw_setup_s = setup(name, seed, work)
        reference = workloads.load_reference()
        workload.warmup()
        if trace:
            tracer = spans.Tracer()
            run = measure(workload, seconds, reference, tracer)
            metrics, layer_self = per_layer(tracer, run)
            tracer.write(WORK / f"spans-{name}-seed{seed}.csv")
        else:
            run = measure(workload, seconds, reference)
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["latencies"])
    failed = run["checks"].failed
    notes = {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(run["walls"]) + len(run["traced_walls"]),
        "fail_frac": failed / attempted,
        "outputs_changed": run["checks"].outputs_changed,
        "outputs_unchecked": run["checks"].outputs_unchecked,
        "errors": run["checks"].errors,
        "raw_pass_walls_s": run["raw_walls"],
    }
    if trace:
        notes["layer_self_sum_s"] = layer_self
    else:
        notes["op_tail_percentile"] = tail(run["latencies"])[0]
        ordered = sorted(run["latencies"])
        notes["op_ms_percentiles"] = {f"p{q:g}": percentile(ordered, q) * 1e3
                                      for q in (50, 90, 95, 99, 100)}
        notes["op_samples"] = attempted
        notes["raw"] = timings(run["raw_walls"], run["raw_latencies"], raw_setup_s)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def print_report(result: dict, env: dict) -> None:
    notes = result["notes"]
    print(f"== {notes['workload']}  seed={notes['seed']}  trace={notes['trace']}  "
          f"passes={notes['passes']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_frac':40s} {notes['fail_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for key in ("op_tail_percentile", "op_samples", "outputs_changed", "outputs_unchecked",
                "layer_self_sum_s"):
        if key in notes:
            print(f"  {key:40s} {notes[key]!s:>14}")
    for key, value in notes.get("raw", {}).items():
        print(f"  {'raw ' + key:40s} {value:>14.6g}")
    for error in notes["errors"]:
        print(f"  error: {error}")
    print("  env: " + json.dumps(env, sort_keys=True))


def run_all(args) -> int:
    """Each workload in a child process; prints every table and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED,
                        help=f"workload seed (held-out seed: {inputs.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="length of the measuring phase, checks included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    notes = result.pop("notes")
    env = environment()
    record = dict(result, notes=notes, env=env)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print_report(dict(result, notes=notes), env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
