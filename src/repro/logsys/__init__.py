"""Log4j-style logging substrate.

The simulated daemons (ResourceManager, NodeManagers, Spark drivers and
executors) emit :class:`LogRecord` entries rendered exactly in the
log4j layout the paper mines::

    2018-01-12 10:23:45,123 INFO ClassName: message

with 1 millisecond timestamp precision — the stated precision limit of
SDchecker.  A :class:`LogStore` holds one stream per daemon as its
rendered log4j lines — the exact bytes of the ``.log`` file it dumps —
so SDchecker always operates on rendered text, never on simulator
internals, whether it mines the store or the dumped directory.
"""

from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import LogRecord, format_timestamp, parse_timestamp
from repro.logsys.store import DaemonLogger, LogStore, stream_segments

__all__ = [
    "DaemonLogger",
    "LogRecord",
    "LogStore",
    "StreamDiagnostics",
    "format_timestamp",
    "parse_timestamp",
    "stream_segments",
]
