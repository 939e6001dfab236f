"""The repository benchmark: one workload per run, correctness-checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-fit --seed 1 --seconds 60 --trace 0

``--trace 0`` prints every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` runs each operation once untraced and
once traced, prints every per-layer metric, and writes a Chrome trace
and a per-layer self-time table under ``perfbench/out/``.  The last
line of standard output is always the JSON result; everything before
it is the human-readable report.  See ``perfbench/README.md`` for what
each workload exposes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> the pipelines it runs at full size.  The pairs
#: share a layer: simulation dominates both a large scenario and a
#: calibration fit, the byte scanner both batch mining and live ingest.
WORKLOADS = {
    "sim-fit": ("sim", "fit"),
    "mine-live": ("mine", "live"),
}
#: Pipelines in tie-break order.  Every workload runs all four, each
#: operation short, interleaved over the whole run: a slow spell on a
#: shared host then lands on every pipeline alike, and each metric is
#: a median over many repeats spread across the run.
ORDER = ("sim", "mine", "fit", "live")
#: Share of the run's wall time each pipeline gets, per workload.  The
#: live pipeline polls on a fixed 250 ms cadence, so its tail
#: percentiles rest on few samples unless it gets a large share; it
#: sleeps through most of it.  The mine probe is steady with little.
SHARES = {
    "sim-fit": {"sim": 0.3, "mine": 0.1, "fit": 0.3, "live": 0.3},
    "mine-live": {"sim": 0.1, "mine": 0.35, "fit": 0.15, "live": 0.4},
}
#: Set-ups per run, one at the start of each eighth of the run.
SETUPS = 8
#: Overrides that would change what is measured.
PINNED_ENV = ("REPRO_JOBS", "REPRO_MMAP", "REPRO_SANITIZE")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = {name: os.environ[name] for name in PINNED_ENV if name in os.environ}
    if pinned:
        print(f"perfbench: refusing to run with overrides set: {pinned}", file=sys.stderr)
        return 2
    missing = [
        p for p in (ROOT / "src" / "repro", ROOT / "benchmarks" / "corpus_large.py",
                    ROOT / "BENCHMARK.json")
        if not p.exists()
    ]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from lifecycle import become_subreaper, reap_children

    work = HERE / ".work" / f"run-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # Every temporary directory the program makes lands in the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    become_subreaper()
    # A kill from outside still runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args, work, tmp)
    finally:
        leftovers = reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if leftovers:
        print(f"perfbench: reaped leftover child processes {leftovers}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def run(args, work: Path, tmp: Path) -> dict:
    from lifecycle import check_clean
    from pipelines import PIPELINES, host_speed
    from repro.core.parser import available_cpus
    from spans import NO_TRACE, Tracer, self_times

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    primaries = WORKLOADS[args.workload]
    pipelines = {
        name: PIPELINES[name][0 if name in primaries else 1]() for name in ORDER
    }

    tracer = Tracer() if args.trace else NO_TRACE
    share = SHARES[args.workload]
    spent = dict.fromkeys(ORDER, 0.0)
    steps: Dict[str, List[float]] = {name: [] for name in ORDER}

    def furthest_behind() -> str:
        return min(ORDER, key=lambda n: spent[n] / share[n])

    speeds: List[float] = []
    setup_times: List[float] = []
    inputs = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * args.seconds / SETUPS:
            # Inputs are rebuilt from the seed at the start of each
            # eighth of the run, so the set-ups behind setup_s are spread
            # over the run like the operations are.  Earlier writes are
            # flushed first, so no set-up pays for another's writeback.
            old, inputs = inputs, work / f"inputs-{len(setup_times)}"
            if old is not None:
                shutil.rmtree(old)
            os.sync()
            speeds.append(host_speed())
            began = time.perf_counter()
            inputs.mkdir()
            for name in ORDER:
                pipelines[name].prepare(inputs, args.seed)
            setup_times.append((time.perf_counter() - began) * speeds[-1])
            check_clean("set-up", work, tmp)
        name = furthest_behind()
        pipeline = pipelines[name]
        speeds.append(host_speed())
        pipeline.speed = speeds[-1]
        began = time.perf_counter()
        pipeline.run_op(len(steps[name]), NO_TRACE)
        if args.trace:
            pipeline.run_op(len(steps[name]), tracer)
            if not steps[name]:
                pipeline.layer_probe(tracer)
        check_clean(f"{name} operation", work, tmp)
        step = time.perf_counter() - began
        spent[name] += step
        steps[name].append(step)
        # Stop once every pipeline has run and the next step would
        # overrun the budget by more than half a step.
        elapsed = time.perf_counter() - start
        if all(steps.values()) and (
            elapsed + statistics.median(steps[furthest_behind()]) / 2 > args.seconds
        ):
            break
    checks = [c for name in ORDER for c in pipelines[name].checks]
    attempted = sum(p.attempted for p in pipelines.values())
    failed = sum(p.failed for p in pipelines.values())
    env = {
        "cpus": available_cpus(),
        "mine_jobs": pipelines["mine"].jobs,
        "fit_workers": pipelines["fit"].workers,
        "host_speed": statistics.median(speeds),
        "python": platform.python_version(),
    }

    if args.trace:
        kind = "per_layer"
        values: Dict[str, float] = {}
        for name in ORDER:
            values.update(pipelines[name].per_layer(tracer))
        untraced = sum(sum(p.walls[False]) for p in pipelines.values())
        traced = sum(sum(p.walls[True]) for p in pipelines.values())
        table = self_times(tracer.spans)
        roots = [row for span, row in table.items() if span.startswith("op.")]
        root_total = sum(row["total_s"] for row in roots)
        values["trace.overhead_ratio"] = traced / untraced
        values["trace.uncovered_share"] = sum(row["self_s"] for row in roots) / root_total
        values["env.cpus"] = env["cpus"]
        values["env.host_speed"] = env["host_speed"]
        write_trace_outputs(args, tracer, table, values)
    else:
        kind = "end_to_end"
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name in ORDER:
            values.update(pipelines[name].end_to_end())

    metrics = {}
    for entry in declared[kind]:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {entry['name']} was not measured ({value!r})")
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    print_report(args, env, setup_times, steps, pipelines, checks, metrics, attempted, failed)
    return {
        "correct": all(c.ok for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_trace_outputs(args, tracer, table, values) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_chrome_trace(out / f"{stem}.trace.json")
    lines = [f"{'span':<18} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{span:<18} {row['calls']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    lines.append(
        f"uncovered share of traced operation wall time: "
        f"{values['trace.uncovered_share']:.4f}"
    )
    lines.append(f"trace overhead (traced / untraced wall): {values['trace.overhead_ratio']:.4f}")
    (out / f"{stem}.layers.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"trace written to {out / (stem + '.trace.json')}")


def print_report(args, env, setup_times, steps, pipelines, checks, metrics, attempted, failed) -> None:
    from pipelines import LIVE_CHECKPOINT_EVERY, LIVE_POLL_S, LIVE_RATE_LPS

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("set-up, scaled to the reference host: " + ", ".join(f"{t:.3f}s" for t in setup_times))
    print("steps: " + ", ".join(
        f"{name} {len(times)} x {statistics.median(times):.3f}s" for name, times in steps.items()
    ))
    live = pipelines["live"]
    print(
        f"live open loop: {LIVE_RATE_LPS} lines/s offered as {live.ticks} slices, "
        f"one appended and polled every {LIVE_POLL_S * 1e3:.0f} ms, a checkpoint "
        f"every {LIVE_CHECKPOINT_EVERY} polls, one query between polls; "
        f"samples {live.sample_counts()}"
    )
    print("fingerprint: " + " ".join(
        f"{k}={v:.6g}" for k, v in pipelines["sim"].fingerprint.items()
    ))
    for check in checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    print(f"operations: attempted={attempted} failed={failed}")
    for name, metric in metrics.items():
        print(f"metric {name:<28} {metric['value']:>14.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
