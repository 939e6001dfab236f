"""Crash-atomic persistence: a failed write never tears the old file.

:func:`repro.atomic.write_atomic` backs the live checkpoint and the
fitted-model artifact.  Each test makes the write fail midway — the
disk fills after half the bytes, or the fsync fails — and asserts that
the previous file is still intact and parseable, with no temp file
left behind.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import pytest

from repro.atomic import write_atomic
from repro.calibrate import FittedModel

GOLDEN_FIT = Path(__file__).resolve().parent / "data" / "calibrate_diurnal_burst_fitted.json"


def _disk_full_after_half(monkeypatch):
    """``os.write`` writes half its buffer, then the disk is full."""
    real_write = os.write
    calls = []

    def half_then_enospc(fd, data):
        if calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        calls.append(fd)
        return real_write(fd, bytes(data[: max(1, len(data) // 2)]))

    monkeypatch.setattr(os, "write", half_then_enospc)


def _fsync_fails(monkeypatch):
    def broken_fsync(_fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "fsync", broken_fsync)


FAILURES = [_disk_full_after_half, _fsync_fails]


class TestWriteAtomic:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_atomic(path, "old")
        assert write_atomic(path, "new") == path
        assert path.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
        text = json.dumps({"revision": 3, "apps": list(range(50))})
        path = write_atomic(tmp_path / "state.json", text)
        monkeypatch.undo()
        assert path.read_text() == text

    @pytest.mark.parametrize("fail", FAILURES, ids=lambda f: f.__name__)
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, fail):
        path = tmp_path / "state.json"
        write_atomic(path, json.dumps({"revision": 1}))
        fail(monkeypatch)
        with pytest.raises(OSError):
            write_atomic(path, json.dumps({"revision": 2, "pad": "x" * 4096}))
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"revision": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


class TestPersistedStateSurvivesAFailedWrite:
    @pytest.mark.parametrize("fail", FAILURES, ids=lambda f: f.__name__)
    def test_live_checkpoint(self, tmp_path, monkeypatch, fail):
        from repro.live import LiveSession

        logdir = tmp_path / "logs"
        logdir.mkdir()
        rm_log = logdir / "hadoop-resourcemanager.log"
        rm_log.write_bytes(b"2018-01-12 00:00:00,000 INFO A: first\n")
        checkpoint = tmp_path / "state.json"
        session = LiveSession(logdir, checkpoint_path=checkpoint)
        session.poll()
        before = checkpoint.read_bytes()
        with rm_log.open("ab") as handle:
            handle.write(b"2018-01-12 00:00:01,000 INFO A: second\n")
        fail(monkeypatch)
        with pytest.raises(OSError):
            session.poll()
        monkeypatch.undo()
        assert checkpoint.read_bytes() == before
        resumed = LiveSession.from_checkpoint(checkpoint)
        assert resumed.revision == json.loads(before)["revision"]

    @pytest.mark.parametrize("fail", FAILURES, ids=lambda f: f.__name__)
    def test_fitted_model_artifact(self, tmp_path, monkeypatch, fail):
        model = FittedModel.load(GOLDEN_FIT)
        path = model.save(tmp_path / "fm.json")
        before = path.read_bytes()
        fail(monkeypatch)
        with pytest.raises(OSError):
            model.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert FittedModel.load(path).dumps() == model.dumps()
