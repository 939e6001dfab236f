"""The four things a user of the repository waits on, sized per workload.

Each pipeline has a set-up step that builds its inputs from the seed
(the live pipeline draws a corpus per operation instead), an operation
that is timed end to end, and, in the traced run only, a
few extra calls that split a layer the timed operation cannot open up
(pool workers run their trials out of sight).  Every workload runs all
four pipelines: its own two at full size, the other two at a small
fixed probe size, so every end-to-end metric exists on every workload.

Layer spans wrap calls into public functions of the repository's
modules; the span names are the per-layer metric names without the
unit suffix.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.corpus_large import generate_large_corpus
from repro.calibrate import (
    COMPONENTS,
    FittedModel,
    TargetDecomposition,
    component_error,
    evaluate_candidate,
    fit,
    resolve_fit_jobs,
)
from repro.core.checker import SDChecker, analyze_events
from repro.core.decompose import BREAKDOWN_COMPONENTS
from repro.core.parser import available_cpus, resolve_jobs
from repro.live import LiveSession
from repro.live.cli import build_arg_parser
from repro.workloads.scenarios import get_scenario

__all__ = ["PIPELINES", "Check", "Pipeline", "derive_seed", "host_speed"]

MiB = 1 << 20

#: Table I′ breakdown tolerance: one log4j millisecond.
_QUANTUM_S = 1e-3


def derive_seed(seed: int, *parts: int) -> int:
    """A non-negative 31-bit seed for operation ``parts`` of run ``seed``."""
    value = seed & 0x7FFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) & 0x7FFFFFFF
    return value


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


#: A fixed slice of interpreter work like the program's own: log lines
#: split and counted into a dict, strings formatted, sorted and dumped
#: as JSON.  Its speed tracks the pipelines' speed on a shared host
#: more closely than a pure arithmetic loop does.
_PROBE_LOG = b"\n".join(
    b"2015-03-%02d 12:%02d:%02d,%03d INFO org.apache.hadoop.yarn.server."
    b"resourcemanager.rmapp.RMAppImpl: application_1428_%04d State change "
    b"from SUBMITTED to ACCEPTED" % (i % 28 + 1, i % 60, i * 7 % 60, i % 1000, i % 500)
    for i in range(2000)
)
#: CPU seconds one pass of the reference work takes on the reference
#: host (a 2-vCPU cloud VM running Python 3.11 in its slower state).
REF_PROBE_S = 0.008


def reference_work() -> None:
    counts: Dict[bytes, int] = {}
    for line in _PROBE_LOG.split(b"\n"):
        key = line[68:96]
        counts[key] = counts.get(key, 0) + 1
        line.find(b"State change")
    words = sorted(str(i * 7919 % 10007) * 3 for i in range(10_000))
    json.dumps(words[:3000])


def host_speed(reps: int = 2) -> float:
    """How fast this host runs right now, relative to the reference.

    A shared host changes speed by up to 1.8x for seconds to minutes
    at a time, and every pipeline slows alike.  The reference work runs
    before every set-up and operation (and between live polls), timed
    in thread CPU time, fastest of ``reps``; end-to-end samples are
    scaled by what it read, so a run measures the program rather than
    the host's speed at the time.
    """
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        reference_work()
        best = min(best, time.thread_time() - start)
    return REF_PROBE_S / best


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Pipeline:
    """Shared bookkeeping: walls per run kind, checks, attempted/failed."""

    def __init__(self) -> None:
        #: Operation wall times, keyed by whether the run was traced.
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        #: Host speed at the current operation over the reference speed,
        #: set by the runner before each operation.  End-to-end samples
        #: are recorded as times multiplied by it and rates divided by
        #: it: what the operation would take on the reference host.
        self.speed = 1.0
        self.checks: List[Check] = []
        self.attempted = 0
        self.failed = 0

    def layer_probe(self, tracer) -> None:
        """Traced-run-only calls that split a layer the operation hides."""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        # One row per check name: a later failure replaces an earlier pass.
        for row in self.checks:
            if row.name == name:
                if row.ok and not ok:
                    row.ok, row.detail = ok, detail
                return
        self.checks.append(Check(name, ok, detail))


# ---------------------------------------------------------------------------
# sim: scenario spec -> simulate -> mine the in-memory LogStore -> report
# ---------------------------------------------------------------------------
class SimPipeline(Pipeline):
    """``multi-tenant-fairness`` (fair scheduler, 3 weighted tenants)."""

    def __init__(self, n_jobs: int):
        super().__init__()
        self.n_jobs = n_jobs
        self.fingerprint: Dict[str, float] = {}
        self.times: List[float] = []
        self.traced_rates: List[float] = []

    def prepare(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.scenario = get_scenario("multi-tenant-fairness").variant(
            n_jobs=self.n_jobs
        )

    def run_op(self, index: int, tracer) -> None:
        scenario = self.scenario
        # Each operation simulates its own draw of the scenario, so a
        # run covers many draws rather than hanging on the cost of one.
        sub_seed = derive_seed(self.seed, 1, index)
        start = time.perf_counter()
        with tracer.span("op.sim"):
            with tracer.span("sim.build"):
                bed, monitor = scenario.build(sub_seed)
            with tracer.span("sim.simulate") as simulate:
                makespan = bed.run_until_all_finished(limit=scenario.limit_s)
            if monitor is not None:
                monitor.stop()
            with tracer.span("sim.mine"):
                events, diagnostics = SDChecker().mine_with_diagnostics(bed.log_store)
            with tracer.span("sim.analyze"):
                report = analyze_events(events, diagnostics)
        wall = time.perf_counter() - start
        self.walls[tracer.enabled].append(wall)

        lines = len(bed.log_store)
        if tracer.enabled:
            self.traced_rates.append(lines / simulate.duration)
        else:
            self.times.append(wall * self.speed)
        bad = [app.app_id for app in report.apps if not _breakdown_ok(app)]
        self.attempted += self.n_jobs
        self.failed += len(bad) + max(0, self.n_jobs - len(report.apps))
        self.check(
            "sim.one_app_per_submission",
            len(report.apps) == self.n_jobs == len(bed.applications),
            f"{len(report.apps)} decomposed apps for {self.n_jobs} submissions",
        )
        self.check(
            "sim.breakdown_telescopes",
            not bad,
            f"{len(bad)} apps whose breakdown misses total_delay by >1 ms",
        )
        if not self.fingerprint:
            self.fingerprint = {
                "sim.makespan_sim_s": makespan,
                "sim.lines": lines,
                "sim.events": len(events),
                "sim.apps": len(report.apps),
                "sim.total_delay_p50_s": report.sample("total_delay").p50,
                "sim.queue_wait_p50_s": report.sample("queue_wait_delay").p50,
            }

    def end_to_end(self) -> Dict[str, float]:
        # The mean, not the median: each operation simulates another
        # draw, and draws differ in cost by up to 2x; the mean over a
        # run's draws settles far faster than their median.
        return {"scenario_s": statistics.fmean(self.times)}

    def per_layer(self, tracer) -> Dict[str, float]:
        return {
            "sim.build_s": median(tracer.durations("sim.build")),
            "sim.simulate_s": median(tracer.durations("sim.simulate")),
            "sim.lines_per_s": median(self.traced_rates),
            "sim.mine_s": median(tracer.durations("sim.mine")),
            "sim.analyze_s": median(tracer.durations("sim.analyze")),
            **self.fingerprint,
        }


def _breakdown_ok(app) -> bool:
    if not app.complete():
        return False
    parts = [getattr(app, name) for name in BREAKDOWN_COMPONENTS]
    if any(p is None for p in parts):
        return False
    return abs(sum(parts) - app.total_delay) <= _QUANTUM_S


# ---------------------------------------------------------------------------
# mine: an on-disk corpus, serial and jobs="auto"
# ---------------------------------------------------------------------------
class MinePipeline(Pipeline):
    """A seeded ``benchmarks/corpus_large.py`` corpus, mostly chatter."""

    def __init__(self, corpus_bytes: int):
        super().__init__()
        self.corpus_bytes = corpus_bytes
        self.serial_walls: List[float] = []
        self.auto_walls: List[float] = []
        self.events = 0
        self.apps = 0

    def prepare(self, root: Path, seed: int) -> None:
        self.corpus = root / "mine-corpus"
        self.bytes, self.lines = generate_large_corpus(
            self.corpus, self.corpus_bytes, seed=derive_seed(seed, 2)
        )
        rm_log = (self.corpus / "hadoop-resourcemanager.log").read_bytes()
        self.expected_apps = rm_log.count(b"State change from NEW to SUBMITTED")
        self.one_app = root / "mine-one-app"
        generate_large_corpus(self.one_app, 1, seed=derive_seed(seed, 3))
        self.jobs = resolve_jobs("auto", self.corpus)

    def _mine(self, jobs, span: str, tracer):
        start = time.perf_counter()
        with tracer.span(span):
            events, diagnostics = SDChecker(jobs=jobs).mine_with_diagnostics(self.corpus)
        with tracer.span("mine.analyze"):
            report = analyze_events(events, diagnostics)
        return time.perf_counter() - start, events, report

    def run_op(self, index: int, tracer) -> None:
        start = time.perf_counter()
        with tracer.span("op.mine"):
            # Alternate which side runs first so neither always meets
            # the other's page-cache and allocator state.
            if index % 2 == 0:
                serial = self._mine(1, "mine.serial", tracer)
                auto = self._mine("auto", "mine.parallel", tracer)
            else:
                auto = self._mine("auto", "mine.parallel", tracer)
                serial = self._mine(1, "mine.serial", tracer)
        self.walls[tracer.enabled].append(time.perf_counter() - start)
        if not tracer.enabled:
            self.serial_walls.append(serial[0] * self.speed)
            self.auto_walls.append(auto[0] * self.speed)

        _, serial_events, serial_report = serial
        _, auto_events, auto_report = auto
        self.events = len(serial_events)
        self.apps = len(serial_report.apps)
        incomplete = sum(not app.complete() for app in serial_report.apps)
        self.attempted += 2 * self.expected_apps
        self.failed += 2 * (incomplete + max(0, self.expected_apps - self.apps))
        self.check(
            "mine.serial_equals_auto",
            serial_events == auto_events
            and serial_report.to_dict(include_diagnostics=True)
            == auto_report.to_dict(include_diagnostics=True),
            f"jobs=1 vs jobs=auto ({self.jobs}) over {len(serial_events)} events",
        )
        self.check(
            "mine.app_count_matches_generator",
            self.apps == self.expected_apps and incomplete == 0,
            f"{self.apps} mined, {self.expected_apps} generated, {incomplete} incomplete",
        )

    def layer_probe(self, tracer) -> None:
        with tracer.span("mine.fixed_call"):
            SDChecker(jobs=available_cpus()).analyze(self.one_app)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "mine_lines_per_s": self.lines / median(self.auto_walls),
            "mine_serial_lines_per_s": self.lines / median(self.serial_walls),
        }

    def per_layer(self, tracer) -> Dict[str, float]:
        serial = median(tracer.durations("mine.serial"))
        parallel = median(tracer.durations("mine.parallel"))
        return {
            "mine.serial_s": serial,
            "mine.parallel_s": parallel,
            "mine.analyze_s": median(tracer.durations("mine.analyze")),
            "mine.fixed_call_s": median(tracer.durations("mine.fixed_call")),
            "mine.parallel_ratio": serial / parallel,
            "mine.bytes": self.bytes,
            "mine.lines": self.lines,
            "mine.events": self.events,
            "mine.apps": self.apps,
            "mine.jobs": self.jobs,
        }


# ---------------------------------------------------------------------------
# fit: repro.calibrate.fit("diurnal-burst", jobs="auto")
# ---------------------------------------------------------------------------
class FitPipeline(Pipeline):
    """Self-calibration of ``diurnal-burst``: small trials over a pool."""

    SCENARIO = "diurnal-burst"

    def __init__(self, grid_limit: int, random_trials: int):
        super().__init__()
        self.grid_limit = grid_limit
        self.random_trials = random_trials
        #: Trials fitted and their scaled wall seconds, over untraced fits.
        self.fitted = 0
        self.fit_seconds = 0.0
        self.trials = 0
        self.failed_trials = 0
        self.model: Optional[FittedModel] = None

    def prepare(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.scenario = get_scenario(self.SCENARIO)
        self.workers = resolve_fit_jobs(
            "auto", 1 + self.grid_limit + self.random_trials
        )

    def run_op(self, index: int, tracer) -> None:
        # A fresh replay draw and candidate set per operation, as in sim.
        self.replay_seed = derive_seed(self.seed, 4, index) % 100_000
        start = time.perf_counter()
        with tracer.span("op.fit"):
            with tracer.span("fit.fit"):
                model = fit(
                    self.scenario,
                    seed=derive_seed(self.seed, 5, index),
                    grid_limit=self.grid_limit,
                    random_trials=self.random_trials,
                    jobs="auto",
                    replay_seed=self.replay_seed,
                )
        wall = time.perf_counter() - start
        self.walls[tracer.enabled].append(wall)
        self.model = model
        self.trials = len(model.trials)
        self.failed_trials = sum(t.error is None for t in model.trials)
        if not tracer.enabled:
            self.fitted += self.trials
            self.fit_seconds += wall * self.speed
        self.attempted += self.trials
        self.failed += self.failed_trials
        baseline = model.trials[0]
        self.check(
            "fit.baseline_scores_zero",
            baseline.kind == "baseline" and baseline.error == 0.0,
            f"baseline trial error {baseline.error!r}",
        )
        text = model.dumps()
        self.check(
            "fit.artifact_round_trips",
            FittedModel.from_dict(json.loads(text)).dumps() == text,
            f"{len(text)} artifact bytes",
        )

    def layer_probe(self, tracer) -> None:
        """One baseline trial serially, then the same trial call by call."""
        model, scenario, replay_seed = self.model, self.scenario, self.replay_seed
        with tracer.span("fit.trial"):
            trial = evaluate_candidate(
                scenario, {}, replay_seed, model.target, model.weights
            )
        with tracer.span("fit.simulate"):
            bed, monitor = scenario.build(replay_seed)
            bed.run_until_all_finished(limit=scenario.limit_s)
        if monitor is not None:
            monitor.stop()
        with tempfile.TemporaryDirectory(prefix="perfbench-fit-") as scratch:
            with tracer.span("fit.dump"):
                bed.dump_logs(scratch)
            with tracer.span("fit.mine"):
                report = SDChecker(jobs=1).analyze(scratch)
        with tracer.span("fit.score"):
            mined = TargetDecomposition.from_report(report, source="probe")
            target_stats, mined_stats = model.target.stats(), mined.stats()
            weight_sum = sum(model.weights.get(c, 0.0) for c in COMPONENTS)
            error = sum(
                model.weights.get(c, 0.0)
                * component_error(target_stats[c], mined_stats[c])
                for c in COMPONENTS
            ) / weight_sum
        self.check(
            "fit.probe_trial_matches",
            trial.error == 0.0 and error == 0.0,
            f"evaluate_candidate {trial.error!r}, call-by-call {error!r}",
        )

    def end_to_end(self) -> Dict[str, float]:
        # Trials over time summed across fits: each fit draws other
        # candidates, whose cost differs as a scenario draw's does.
        return {"fit_trials_per_s": self.fitted / self.fit_seconds}

    def per_layer(self, tracer) -> Dict[str, float]:
        trial_s = median(tracer.durations("fit.trial"))
        fit_wall = median(tracer.durations("fit.fit"))
        return {
            "fit.trial_s": trial_s,
            "fit.simulate_s": median(tracer.durations("fit.simulate")),
            "fit.dump_s": median(tracer.durations("fit.dump")),
            "fit.mine_s": median(tracer.durations("fit.mine")),
            "fit.score_s": median(tracer.durations("fit.score")),
            "fit.pool_efficiency": self.trials * trial_s / (fit_wall * self.workers),
            "fit.trials": self.trials,
            "fit.failed_trials": self.failed_trials,
            "fit.workers": self.workers,
        }


# ---------------------------------------------------------------------------
# live: a LiveSession over a directory grown by an open loop
# ---------------------------------------------------------------------------
#: The open loop runs the cadence ``repro.live serve`` ships with, on
#: one thread: every poll period the log writers append one slice
#: (LIVE_RATE_LPS * LIVE_POLL_S lines spread over every log file, far
#: below the ~240k lines/s a session ingests in large polls) and the
#: session polls at once, writing its checkpoint every
#: LIVE_CHECKPOINT_EVERY polls; half a period later a client sends one
#: query.  One query per poll follows the loop the benchmark's
#: workload is defined by (append what is due, poll, answer a query);
#: no measured client rate exists to take it from.  Lag runs from a
#: slice's due time, which is also its poll's, to the end of that poll,
#: so it holds no built-in wait: it is the append and the poll, plus
#: any lateness a slow earlier step caused.  Query latency is the
#: payload calls' own time, what the server spends per request.
#: Appends, polls, queries and the drain are timed in thread CPU time:
#: on a shared VM the hypervisor takes the CPU away for 5-40 ms during
#: one poll in six or so, with no context switch the process could see,
#: and in wall time the p95 measured those pauses, not the session.
_SERVE_DEFAULTS = build_arg_parser().parse_args(["serve", "."])
LIVE_RATE_LPS = 15_000
LIVE_POLL_S = _SERVE_DEFAULTS.poll_interval
LIVE_CHECKPOINT_EVERY = _SERVE_DEFAULTS.checkpoint_every_polls

_POLL, _QUERY = 0, 1


def live_schedule(ticks: int) -> List[Tuple[float, int, int]]:
    """(due offset, kind, index) in run order: append+poll, then query."""
    events = []
    for j in range(ticks):
        events.append((j * LIVE_POLL_S, _POLL, j))
        events.append(((j + 0.5) * LIVE_POLL_S, _QUERY, j))
    return events


class LivePipeline(Pipeline):
    """A checkpointing session tailing a directory an open loop grows."""

    def __init__(self, source_bytes: int):
        super().__init__()
        self.source_bytes = source_bytes
        self.lags: List[float] = []
        self.query_times: List[float] = []
        self.ingest_rates: List[float] = []
        self.stats: Dict[str, float] = {}

    def prepare(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def _draw(self, index: int) -> None:
        """Cut operation ``index``'s own seeded corpus into one slice per poll.

        As with the scenario draws, each operation tails another corpus:
        what a poll or a query costs depends on which apps the slices
        carry, and with one corpus per run that would be the seed's.
        """
        source = self.root / f"live-source-{index}"
        _bytes, lines = generate_large_corpus(
            source, self.source_bytes, seed=derive_seed(self.seed, 6, index)
        )
        blobs = {p.name: p.read_bytes() for p in sorted(source.iterdir())}
        shutil.rmtree(source)
        self.ticks = ticks = max(1, -(-lines // int(LIVE_RATE_LPS * LIVE_POLL_S)))
        self.slices: List[List[Tuple[str, bytes]]] = []
        for k in range(ticks):
            parts = []
            for name, blob in blobs.items():
                a, b = len(blob) * k // ticks, len(blob) * (k + 1) // ticks
                if b > a:
                    parts.append((name, blob[a:b]))
            self.slices.append(parts)
        self.lines = lines
        self.schedule = live_schedule(ticks)

    def _append(self, directory: Path, k: int) -> None:
        for name, part in self.slices[k]:
            with open(directory / name, "ab") as handle:
                handle.write(part)

    def _guarded(self, call, what: str):
        self.attempted += 1
        try:
            return call()
        except Exception:  # counted as a failed operation, run goes on
            self.failed += 1
            print(f"live {what} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def run_op(self, index: int, tracer) -> None:
        self._draw(index)
        name = f"live-{index}-{int(tracer.enabled)}"
        directory = self.root / name
        directory.mkdir()
        checkpoint = self.root / f"{name}.ckpt.json"
        session = LiveSession(
            directory,
            checkpoint_path=checkpoint,
            checkpoint_every_polls=LIVE_CHECKPOINT_EVERY,
        )
        ingested = session.metrics.counter("repro_live_ingest_lines_total")
        lags: List[float] = []
        queries: List[float] = []
        # Lines per second of each poll or drain that ingested anything.
        rates: List[float] = []
        polls = 0
        late = 0.0
        lag_bytes = 0
        speeds = [self.speed]
        speed = self.speed
        start = time.perf_counter()
        with tracer.span("op.live"):
            for offset, kind, k in self.schedule:
                due = start + offset
                now = time.perf_counter()
                if now < due:
                    with tracer.span("live.wait"):
                        time.sleep(due - now)
                if kind == _POLL:
                    behind = max(0.0, time.perf_counter() - due)
                    late = max(late, behind)
                    appending = time.thread_time()
                    with tracer.span("live.append"):
                        self._append(directory, k)
                    before, began = ingested.value, time.thread_time()
                    with tracer.span("live.poll"):
                        self._guarded(session.poll, "poll")
                    done = time.thread_time()
                    polls += 1
                    lag_bytes = max(lag_bytes, session.tail_lag_bytes)
                    # The first poll opens every file, once in a
                    # session's life; the samples are the polls after.
                    if k > 0:
                        if ingested.value > before:
                            rates.append((ingested.value - before) / (done - began) / speed)
                        lags.append((behind + done - appending) * speed)
                else:
                    began = time.thread_time()
                    with tracer.span("live.query"):
                        self._guarded(lambda: _query(session, k), "query")
                    queries.append((time.thread_time() - began) * speed)
                    # The idle half period before the next poll is long
                    # enough to re-read the host's speed; the median of
                    # the last few readings damps a disturbed one.
                    with tracer.span("live.speed_probe"):
                        speeds.append(host_speed())
                    speed = statistics.median(speeds[-5:])
            before, began = ingested.value, time.thread_time()
            with tracer.span("live.drain"):
                report = self._guarded(session.drain, "drain")
            if ingested.value > before:
                rates.append((ingested.value - before) / (time.thread_time() - began) / speed)
        self.walls[tracer.enabled].append(time.perf_counter() - start)

        if not tracer.enabled:
            self.lags.extend(lags)
            self.query_times.extend(queries)
            self.ingest_rates.extend(rates)
        batch = SDChecker(jobs=1).analyze(directory)
        self.check(
            "live.drain_equals_batch",
            report is not None
            and report.to_dict(include_diagnostics=True)
            == batch.to_dict(include_diagnostics=True),
            f"{len(batch.apps)} apps over {self.lines} lines in {self.ticks} polls",
        )
        self.stats = {
            "live.tail_lag_bytes_max": lag_bytes,
            "live.polls": polls + 1,
            "live.lines": self.lines,
            "live.queries": len(queries),
            "live.revisions": session.revision,
            "live.gen_late_ms_max": late * 1e3,
        }
        shutil.rmtree(directory)
        checkpoint.unlink(missing_ok=True)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "live_ingest_lines_per_s": median(self.ingest_rates),
            "live_lag_p50_ms": percentile(self.lags, 50) * 1e3,
            "live_lag_p95_ms": percentile(self.lags, 95) * 1e3,
            "live_query_p50_ms": percentile(self.query_times, 50) * 1e3,
            "live_query_p95_ms": percentile(self.query_times, 95) * 1e3,
        }

    def per_layer(self, tracer) -> Dict[str, float]:
        return {
            "live.poll_s": median(tracer.durations("live.poll")),
            "live.query_s": median(tracer.durations("live.query")),
            "live.drain_s": median(tracer.durations("live.drain")),
            **self.stats,
        }

    def sample_counts(self) -> Dict[str, int]:
        return {"lag": len(self.lags), "query": len(self.query_times)}


def _query(session: LiveSession, k: int) -> None:
    """What a client asks each tick: the app list, then one app's breakdown."""
    apps = session.apps_payload()
    if apps:
        session.decomposition_payload(apps[k % len(apps)]["app_id"])


#: Pipeline factories by name: (full size, probe size).  A workload
#: runs its own two pipelines at full size and the other two as probes.
PIPELINES = {
    "sim": (lambda: SimPipeline(32), lambda: SimPipeline(8)),
    "mine": (lambda: MinePipeline(24 * MiB), lambda: MinePipeline(2 * MiB)),
    "fit": (lambda: FitPipeline(4, 3), lambda: FitPipeline(1, 0)),
    "live": (lambda: LivePipeline(5 * MiB), lambda: LivePipeline(4 * MiB)),
}
