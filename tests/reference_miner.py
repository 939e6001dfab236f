"""The record-stream reference miner: the test oracle for the byte scanner.

``repro.core.parser`` mines every source through one byte-oriented
scanner with fixed-offset probes, memos, and a chunk merge.  This module
is the executable specification it is checked against: it reads each
stream line by line, parses every line with
:meth:`LogRecord.classify_parse`, and dispatches the parsed records to
a straightforward per-daemon miner — no byte tricks, no chunking, no
memos.  The identity suites (``test_miner_fastpath.py``,
``test_golden_corpus.py``) and the miner throughput benchmark require
the production miner to match it event for event and diagnostics
counter for counter.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core import messages as msg
from repro.core.diagnostics import MiningDiagnostics
from repro.core.events import EventKind, SchedulingEvent
from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import PARSE_BAD_TIMESTAMP, LogRecord
from repro.logsys.store import LogStore, stream_segments

__all__ = [
    "ReferenceMiner",
    "iter_file_lines",
    "iter_file_records",
    "iter_segment_records",
]

#: Read size of the chunked text reader.
_CHUNK_SIZE = 1 << 16


def iter_file_lines(path: Union[str, Path], chunk_size: int = _CHUNK_SIZE) -> Iterator[str]:
    """Yield the text lines of ``path`` reading fixed-size chunks.

    Invalid UTF-8 bytes are replaced with U+FFFD instead of raising.
    Lines are terminated by ``\\n`` only (``newline="\\n"`` disables
    universal-newline translation), the log4j convention the byte
    scanner also splits on.
    """
    tail = ""
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            chunk = tail + chunk
            lines = chunk.split("\n")
            tail = lines.pop()
            yield from lines
    if tail:
        yield tail


def iter_line_records(
    lines: Iterable[str], diagnostics: Optional[StreamDiagnostics] = None
) -> Iterator[LogRecord]:
    """Yield the parseable records of ``lines``, counting what is skipped."""
    for line in lines:
        record, outcome = LogRecord.classify_parse(line)
        if diagnostics is not None:
            diagnostics.lines_total += 1
            if "�" in line:
                diagnostics.encoding_replacements += 1
            if record is not None:
                diagnostics.records_parsed += 1
            elif outcome == PARSE_BAD_TIMESTAMP:
                diagnostics.dropped_bad_timestamp += 1
            else:
                diagnostics.dropped_garbled += 1
        if record is not None:
            yield record


def iter_file_records(
    path: Union[str, Path],
    chunk_size: int = _CHUNK_SIZE,
    diagnostics: Optional[StreamDiagnostics] = None,
) -> Iterator[LogRecord]:
    """Yield the parseable :class:`LogRecord` lines of one log file."""
    return iter_line_records(iter_file_lines(path, chunk_size), diagnostics)


def iter_segment_records(
    paths: Sequence[Union[str, Path]],
    chunk_size: int = _CHUNK_SIZE,
    diagnostics: Optional[StreamDiagnostics] = None,
) -> Iterator[LogRecord]:
    """Yield the records of one stream's rotation segments, oldest first."""
    if diagnostics is not None:
        diagnostics.segments = max(1, len(paths))
    for path in paths:
        yield from iter_file_records(path, chunk_size, diagnostics)


class ReferenceMiner:
    """Line-by-line miner over a log directory or a :class:`LogStore`."""

    def mine(self, source: Union[LogStore, str, Path]) -> List[SchedulingEvent]:
        return self.mine_with_diagnostics(source)[0]

    def mine_with_diagnostics(
        self, source: Union[LogStore, str, Path]
    ) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
        events: List[SchedulingEvent] = []
        diagnostics = MiningDiagnostics()
        for daemon, records, stream_diag in self._streams(source):
            events.extend(self._mine_stream(daemon, records, stream_diag))
            diagnostics.streams[daemon] = stream_diag
        return events, diagnostics

    @staticmethod
    def _streams(source):
        """(daemon, lazy records, diagnostics) per stream, sorted by daemon."""
        if isinstance(source, LogStore):
            for daemon in source.daemons:
                diag = StreamDiagnostics(daemon=daemon, segments=source.segments(daemon))
                yield daemon, iter_line_records(source.render(daemon), diag), diag
            return
        for daemon, paths in stream_segments(source):
            diag = StreamDiagnostics(daemon=daemon)
            yield daemon, iter_segment_records(paths, diagnostics=diag), diag

    def _mine_stream(
        self,
        daemon: str,
        records: Iterable[LogRecord],
        diagnostics: StreamDiagnostics,
    ) -> List[SchedulingEvent]:
        """Dispatch one stream to its miner by daemon-name shape."""
        records = _observe_duplicates(records, diagnostics)
        if msg.CONTAINER_ID_RE.match(daemon):
            return self._mine_container_stream(daemon, records)
        if daemon.startswith("hadoop-resourcemanager"):
            return self._mine_rm_stream(daemon, records)
        if daemon.startswith("hadoop-nodemanager"):
            return self._mine_nm_stream(daemon, records)
        # Unknown streams are ignored, but the diagnostics remember it.
        diagnostics.recognized = False
        for _record in records:  # drain so reader-side counters fill
            pass
        return []

    def _mine_rm_stream(
        self, daemon: str, records: Iterable[LogRecord]
    ) -> List[SchedulingEvent]:
        events: List[SchedulingEvent] = []
        for record in records:
            message = record.message
            if message.startswith(msg.RM_APP_LINE_PREFIX) and record.cls.endswith(
                "RMAppImpl"
            ):
                hit = msg.classify_rm_app_line(message)
                if hit is not None:
                    kind, app_id = hit
                    events.append(
                        SchedulingEvent(kind, record.timestamp, app_id, None, daemon)
                    )
            elif message.startswith(
                msg.RM_CONTAINER_LINE_PREFIX
            ) and record.cls.endswith("RMContainerImpl"):
                hit = msg.classify_rm_container_line(message)
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

    def _mine_nm_stream(
        self, daemon: str, records: Iterable[LogRecord]
    ) -> List[SchedulingEvent]:
        events: List[SchedulingEvent] = []
        for record in records:
            if not record.message.startswith(msg.NM_CONTAINER_LINE_PREFIX):
                continue
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

    def _mine_container_stream(
        self, daemon: str, records: Iterable[LogRecord]
    ) -> List[SchedulingEvent]:
        """A container's own log: FIRST_LOG, driver markers, FIRST_TASK.

        The stream's first parsed line marks the successful launch
        (messages 9/13); FIRST_TASK and MR_TASK_DONE keep their first
        occurrence only.
        """
        container_id = daemon
        app_id = msg.app_id_of_container(container_id)
        events: List[SchedulingEvent] = []
        stream = iter(records)
        first = next(stream, None)
        if first is None:
            return events
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
        for record in itertools.chain((first,), stream):
            hit = msg.classify_container_line(record.message)
            if hit is None:
                continue
            kind, line_app_id = hit
            if kind is EventKind.FIRST_TASK:
                if saw_task:
                    continue
                saw_task = True
            elif kind is EventKind.MR_TASK_DONE:
                if saw_mr_done:
                    continue
                saw_mr_done = True
            events.append(
                SchedulingEvent(
                    kind,
                    record.timestamp,
                    app_id if line_app_id is None else line_app_id,
                    container_id,
                    daemon,
                    source_class=record.cls,
                )
            )
        return events


def _observe_duplicates(
    records: Iterable[LogRecord], diagnostics: StreamDiagnostics
) -> Iterator[LogRecord]:
    """Pass records through, counting duplicates and backwards steps.

    A record equal to its predecessor is a duplicate (an at-least-once
    shipper re-delivered it); one whose timestamp goes backwards is out
    of order.
    """
    previous: Optional[LogRecord] = None
    for record in records:
        if previous is not None:
            if record == previous:
                diagnostics.duplicate_records += 1
            elif record.timestamp < previous.timestamp:
                diagnostics.out_of_order += 1
        previous = record
        yield record
