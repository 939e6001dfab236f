"""Miner throughput: the byte-scanning miner vs its predecessors.

Generates a synthetic multi-application log corpus (RM + NM + one
stream per container, with realistic executor chatter as noise),
measures lines/sec for

* the **legacy** miner (the pre-streaming implementation: list
  materialization plus a cascade of up to five regex attempts per
  container-log line) over the parsed store records, kept here
  verbatim as the comparison baseline;
* the **serial store** path (:class:`LogMiner` over the in-memory
  :class:`LogStore`: the byte scanner over the store's log4j bytes);
* the **legacy directory** path (the record-stream reference miner in
  ``tests/reference_miner.py``: text-mode record streaming off disk,
  one ``classify_parse`` per line);
* the **fast directory** path (:class:`LogMiner` over the dumped
  directory: two-phase byte scanning, chunk partitioning), serial and
  at ``--jobs 4``;

asserts they all agree event-for-event, and appends a trajectory
point to ``benchmarks/results/BENCH_miner.json``.

Corpus size: ~500k lines under ``REPRO_SCALE=paper`` (the acceptance
corpus), ~120k under the default ``small`` scale, and ~4k when
``REPRO_BENCH_SMOKE=1`` (the CI smoke job, which checks equivalence
and that the fast path is never slower than the legacy directory
path).  The parallel-speedup assertion only runs with at least two
usable CPUs — on a single-CPU runner a worker pool cannot beat serial
and the recorded number simply documents that honestly.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import List

from repro.core import messages as msg
from repro.core.events import EventKind, SchedulingEvent
from repro.core.parser import LogMiner, available_cpus
from repro.logsys.record import LogRecord
from repro.logsys.store import LogStore
from tests.reference_miner import ReferenceMiner

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_FILE = RESULTS_DIR / "BENCH_miner.json"

_EXECUTORS_PER_APP = 4
#: Noise lines per executor stream — the corpus knob.  Application logs
#: dominate real collections, so throughput is decided by how fast the
#: miner rejects chatter lines.
_NOISE_LINES = {"smoke": 8, "small": 140, "paper": 600}

_EXEC_CHATTER = (
    "Starting executor heartbeat thread",
    "Finished task 3.0 in stage 1.0 (TID 7) in 23 ms on node02 (1/4)",
    "Running task 1.0 in stage 2.0 (TID 11)",
    "Block broadcast_3_piece0 stored as bytes in memory",
    "Told master about block broadcast_3_piece0",
    "Reading broadcast variable 3 took 2 ms",
    # Near misses: share a literal prefix with a real message but fail
    # its body, so the alternation (not just the gate) gets exercised.
    "Got assigned task slot on host node02",
    "Task attempt finished cleanly",
)


def corpus_apps(mode: str) -> int:
    return {"smoke": 2, "small": 35, "paper": 165}[mode]


def build_corpus(mode: str) -> LogStore:
    """A deterministic multi-app log collection of the requested scale."""
    store = LogStore()
    noise = _NOISE_LINES[mode]
    clock = [0.0]

    def tick() -> float:
        clock[0] += 0.001
        return clock[0]

    def emit(daemon: str, cls: str, message: str) -> None:
        store.append(daemon, LogRecord(tick(), cls, message))

    for i in range(1, corpus_apps(mode) + 1):
        app = f"application_1515715200000_{i:04d}"
        containers = [
            f"container_1515715200000_{i:04d}_01_{c:06d}"
            for c in range(1, _EXECUTORS_PER_APP + 2)
        ]
        am, executors = containers[0], containers[1:]
        rm = "hadoop-resourcemanager"
        emit(rm, "x.RMAppImpl", f"{app} State change from NEW to SUBMITTED on event = START")
        emit(rm, "x.RMAppImpl", f"{app} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED")
        for c_idx, cid in enumerate(containers):
            emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from NEW to ALLOCATED")
            emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from ALLOCATED to ACQUIRED")
            emit(rm, "x.ClientRMService", f"Allocated new applicationId: {i}")
            nm = f"hadoop-nodemanager-node{(i + c_idx) % 7 + 1:02d}"
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from NEW to LOCALIZING")
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from LOCALIZING to SCHEDULED")
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from SCHEDULED to RUNNING")
            emit(nm, "x.ContainersMonitorImpl", f"Memory usage of ProcessTree for {cid}: 180MB")
        emit(rm, "x.RMAppImpl", f"{app} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
        emit(am, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources")
        emit(am, "org.apache.spark.deploy.yarn.ApplicationMaster", f"Registered ApplicationMaster for {app}")
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER START_ALLO Will request {_EXECUTORS_PER_APP} executor container(s) for {app}")
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER END_ALLO All requested containers allocated for {app} ({_EXECUTORS_PER_APP} granted)")
        for j, cid in enumerate(executors):
            cls = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
            emit(cid, cls, f"Started daemon with process name: {j + 2}@node02 for container {cid}")
            for k in range(noise):
                emit(cid, "org.apache.spark.executor.Executor", _EXEC_CHATTER[k % len(_EXEC_CHATTER)])
            emit(cid, "org.apache.spark.executor.Executor", f"Got assigned task {j}")
            for k in range(noise // 4):
                emit(cid, "org.apache.spark.executor.Executor", _EXEC_CHATTER[k % len(_EXEC_CHATTER)])
        emit(rm, "x.RMAppImpl", f"{app} State change from RUNNING to FINISHED on event = ATTEMPT_FINISHED")
    return store


class LegacyLogMiner:
    """The pre-streaming miner, verbatim: the benchmark baseline.

    Materializes every stream, then classifies container-log lines with
    the cascaded ``classify_first_task_line`` →
    ``classify_mr_task_done_line`` → ``classify_driver_line`` battery
    (up to five regex attempts per line).
    """

    def mine(self, store: LogStore) -> List[SchedulingEvent]:
        events: List[SchedulingEvent] = []
        for daemon in store.daemons:
            records = list(store.records(daemon))
            if not records:
                continue
            if msg.CONTAINER_ID_RE.match(daemon):
                events.extend(self._mine_container_stream(daemon, records))
            elif daemon.startswith("hadoop-resourcemanager"):
                events.extend(self._mine_rm_stream(daemon, records))
            elif daemon.startswith("hadoop-nodemanager"):
                events.extend(self._mine_nm_stream(daemon, records))
        return events

    def _mine_rm_stream(self, daemon, records) -> List[SchedulingEvent]:
        events: List[SchedulingEvent] = []
        for record in records:
            if record.cls.endswith("RMAppImpl"):
                hit = msg.classify_rm_app_line(record.message)
                if hit is not None:
                    kind, app_id = hit
                    events.append(
                        SchedulingEvent(kind, record.timestamp, app_id, None, daemon)
                    )
            elif record.cls.endswith("RMContainerImpl"):
                hit = msg.classify_rm_container_line(record.message)
                if hit is not None:
                    kind, container_id = hit
                    events.append(
                        SchedulingEvent(
                            kind,
                            record.timestamp,
                            msg.app_id_of_container(container_id),
                            container_id,
                            daemon,
                        )
                    )
        return events

    def _mine_nm_stream(self, daemon, records) -> List[SchedulingEvent]:
        events: List[SchedulingEvent] = []
        for record in records:
            if not record.cls.endswith("ContainerImpl"):
                continue
            hit = msg.classify_nm_container_line(record.message)
            if hit is None:
                continue
            kind, container_id = hit
            events.append(
                SchedulingEvent(
                    kind,
                    record.timestamp,
                    msg.app_id_of_container(container_id),
                    container_id,
                    daemon,
                )
            )
        return events

    def _mine_container_stream(self, daemon, records) -> List[SchedulingEvent]:
        container_id = daemon
        app_id = msg.app_id_of_container(container_id)
        events: List[SchedulingEvent] = []
        first = records[0]
        events.append(
            SchedulingEvent(
                EventKind.INSTANCE_FIRST_LOG,
                first.timestamp,
                app_id,
                container_id,
                daemon,
                source_class=first.cls,
                detail=first.message,
            )
        )
        saw_task = False
        saw_mr_done = False
        for record in records:
            if not saw_task and msg.classify_first_task_line(record.message):
                saw_task = True
                events.append(
                    SchedulingEvent(
                        EventKind.FIRST_TASK,
                        record.timestamp,
                        app_id,
                        container_id,
                        daemon,
                        source_class=record.cls,
                    )
                )
                continue
            if not saw_mr_done and msg.classify_mr_task_done_line(record.message):
                saw_mr_done = True
                events.append(
                    SchedulingEvent(
                        EventKind.MR_TASK_DONE,
                        record.timestamp,
                        app_id,
                        container_id,
                        daemon,
                        source_class=record.cls,
                    )
                )
                continue
            hit = msg.classify_driver_line(record.message)
            if hit is not None:
                kind, line_app_id = hit
                events.append(
                    SchedulingEvent(
                        kind,
                        record.timestamp,
                        line_app_id,
                        container_id,
                        daemon,
                        source_class=record.cls,
                    )
                )
        return events


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _time_best(fn, *args, rounds: int = 3):
    """Best-of-N timing: damps scheduler and page-cache flake in CI."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        result, elapsed = _time(fn, *args)
        best = min(best, elapsed)
    return result, best


def _record_point(point: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = []
    if BENCH_FILE.exists():
        history = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    history.append(point)
    BENCH_FILE.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def test_miner_throughput(benchmark, scale, tmp_path):
    mode = "smoke" if os.environ.get("REPRO_BENCH_SMOKE") else scale
    store = build_corpus(mode)
    lines = len(store)
    logdir = tmp_path / "corpus"
    store.dump(logdir)

    legacy_dir_miner = ReferenceMiner()
    fast_miner = LogMiner()
    legacy_events, legacy_s = _time_best(LegacyLogMiner().mine, store)
    serial_events, serial_s = _time_best(fast_miner.mine, store)
    serial_dir_events, serial_dir_s = _time_best(legacy_dir_miner.mine, str(logdir))
    fast_serial_events, fast_serial_s = _time_best(fast_miner.mine, str(logdir))
    fast_parallel_events, fast_parallel_s = _time_best(
        fast_miner.mine_parallel, str(logdir), 4
    )
    benchmark.pedantic(fast_miner.mine, args=(str(logdir),), rounds=1, iterations=1)

    # Equivalence: every pipeline must reproduce the legacy miner
    # event-for-event.
    assert serial_events == legacy_events
    assert fast_serial_events == serial_dir_events
    assert fast_parallel_events == serial_dir_events
    assert [
        (e.kind, e.app_id, e.container_id, e.daemon) for e in serial_dir_events
    ] == [(e.kind, e.app_id, e.container_id, e.daemon) for e in serial_events]

    cpus = available_cpus()
    speedup = legacy_s / serial_s if serial_s > 0 else float("inf")
    fast_speedup = serial_dir_s / fast_serial_s if fast_serial_s > 0 else float("inf")
    parallel_ratio = (
        fast_serial_s / fast_parallel_s if fast_parallel_s > 0 else float("inf")
    )
    point = {
        "mode": mode,
        "corpus_lines": lines,
        "apps": corpus_apps(mode),
        "cpus": cpus,
        "legacy_store_lps": round(lines / legacy_s),
        "serial_store_lps": round(lines / serial_s),
        "serial_dir_lps": round(lines / serial_dir_s),
        "fast_serial_dir_lps": round(lines / fast_serial_s),
        "fast_parallel_dir_lps": round(lines / fast_parallel_s),
        "parallel_jobs": 4,
        "speedup_vs_legacy": round(speedup, 2),
        "fast_speedup_vs_dir": round(fast_speedup, 2),
        "fast_parallel_ratio": round(parallel_ratio, 2),
    }
    _record_point(point)
    print()
    print(json.dumps(point))

    assert lines / serial_s > 0
    # The fast path must never lose to the legacy directory path — the
    # regression bar the REPRO_BENCH_SMOKE=1 CI job enforces on every
    # push (best-of-3 timing keeps this stable on noisy runners).
    assert fast_serial_s <= serial_dir_s, (
        f"fast path slower than legacy directory path "
        f"({fast_serial_s:.3f}s vs {serial_dir_s:.3f}s)"
    )
    if mode == "paper":
        # The acceptance bars, stated on the ~500k-line paper corpus.
        # The store-miner ratio is environment-sensitive (the original
        # acceptance run recorded 3.7x, today's runner measures ~2.7x
        # for the unchanged seed code), so assert a conservative floor
        # rather than the historical high-water mark.
        assert speedup >= 2.0, f"only {speedup:.2f}x over the legacy miner"
        # The fast directory path is the bar this file exists for:
        # >= 3x the legacy directory path, per-run, no grandfathering.
        assert fast_speedup >= 3.0, (
            f"fast path only {fast_speedup:.2f}x over the legacy directory path"
        )
    if mode != "smoke" and cpus >= 2:
        # Chunk parallelism must win outright wherever there is a
        # second CPU to scale onto; on a single-CPU runner the pool can
        # only lose, and the recorded point documents that honestly
        # instead.  The wire-format transfer (repro.core.wire) is what
        # makes this bar holdable: per-event pickle used to eat the
        # whole speedup on small corpora.
        assert parallel_ratio > 1.0, (
            f"--jobs 4 only {parallel_ratio:.2f}x over the serial fast path"
        )
    if mode == "paper" and cpus >= 4:
        # With all four workers backed by real cores, demand real
        # scaling, not just a win.
        assert parallel_ratio >= 1.8, (
            f"--jobs 4 only {parallel_ratio:.2f}x over the serial fast path"
        )
