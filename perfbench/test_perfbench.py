"""The benchmark's own contract: correct output and a clean exit.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Each test starts the real command in a new session, so every process
it could leave behind carries that session id and can be looked for
after it exits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _session_members(sid: int):
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def _run(args, cwd=ROOT, env=None):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc, out, err


def _clean_env():
    env = dict(os.environ)
    for name in ("REPRO_JOBS", "REPRO_MMAP", "REPRO_SANITIZE"):
        env.pop(name, None)
    return env


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_is_correct_and_leaves_nothing_behind(workload, trace):
    proc, out, err = _run(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        env=_clean_env(),
    )
    assert proc.returncode == 0, err[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
    assert _session_members(proc.pid) == []
    work = HERE / ".work"
    assert not work.exists() or not any(work.iterdir())


def test_refuses_a_pinned_override():
    env = _clean_env()
    env["REPRO_JOBS"] = "2"
    proc, out, _err = _run(
        ["--workload", "sim-fit", "--seed", "1", "--seconds", "1"], env=env
    )
    assert proc.returncode != 0
    assert out.strip() == ""


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
        )
    proc, out, _err = _run(
        ["--workload", "sim-fit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=_clean_env(),
    )
    assert proc.returncode != 0
    assert out.strip() == ""
