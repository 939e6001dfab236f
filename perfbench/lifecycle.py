"""Proof that a workload leaves nothing behind.

After every pipeline phase the harness checks that each pool, child
process, thread, temporary directory and file mapping the phase created
is gone.  The process also registers itself as a child subreaper, so a
grandchild orphaned by a dead pool worker is re-parented to the
benchmark rather than to init, and the final sweep still sees it.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import List

__all__ = ["LeakError", "become_subreaper", "child_pids", "check_clean", "reap_children"]

_PR_SET_CHILD_SUBREAPER = 36


class LeakError(RuntimeError):
    """A phase left a process, thread, mapping or temp file behind."""


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only); False where unsupported."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return False
    return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def child_pids() -> List[int]:
    """Live processes whose parent is this one, read from ``/proc``."""
    me = os.getpid()
    found = []
    proc = Path("/proc")
    if not proc.is_dir():
        return [p.pid for p in multiprocessing.active_children()]
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == me:
            found.append(int(entry.name))
    return sorted(found)


def _mapped_under(root: Path) -> List[str]:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    prefix = str(root.resolve())
    hits = []
    for line in maps.read_text().splitlines():
        parts = line.split(maxsplit=5)
        if len(parts) == 6 and parts[5].startswith(prefix):
            hits.append(parts[5])
    return sorted(set(hits))


def check_clean(where: str, work_root: Path, tmp_dir: Path) -> None:
    """Raise :class:`LeakError` if anything from the last phase survives."""
    gc.collect()
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"multiprocessing children alive: {children}")
    threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads alive besides main: {[t.name for t in threads]}")
    pids = child_pids()
    if pids:
        problems.append(f"child processes alive: {pids}")
    mapped = _mapped_under(work_root)
    if mapped:
        problems.append(f"files still mapped: {mapped[:3]}")
    leftovers = sorted(p.name for p in tmp_dir.iterdir()) if tmp_dir.exists() else []
    if leftovers:
        problems.append(f"temp entries left: {leftovers[:3]}")
    if problems:
        raise LeakError(f"after {where}: " + "; ".join(problems))


def reap_children(timeout_s: float = 5.0) -> List[int]:
    """Terminate and wait for every remaining child; returns their pids."""
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    pending = set(pids)
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        time.sleep(0.01)
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return pids
