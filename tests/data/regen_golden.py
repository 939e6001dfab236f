"""Regenerate the golden corpus and its expected-analysis snapshots.

Run from the repository root after an *intentional* change to the
simulator's log output or to SDchecker's decomposition:

    PYTHONPATH=src python tests/data/regen_golden.py

It rebuilds, fully deterministically:

* ``tests/data/golden/``  — the dumped logs of one TPC-H query run on
  a 5-node testbed (fixed seeds, fixed dataset name);
* ``tests/data/golden_expected.json``  — ``AnalysisReport.to_dict()``
  of the clean corpus;
* ``tests/data/golden_expected_truncate_tail.json``  — the full export
  *including diagnostics* after the canned ``truncate-tail`` corruption
  at seed 0, pinning both the corruption bytes and the degradation
  accounting;
* ``tests/data/scenario_<preset>_expected.json``  — one mined-report
  snapshot per scenario pack in
  :data:`repro.workloads.scenarios.SCENARIO_PRESETS`, each generated
  at its preset's pinned seed;
* ``tests/data/calibrate_diurnal_burst_fitted.json``  — one small
  calibration self-fit on the diurnal-burst preset (seed 7, 2 grid +
  2 random trials), the byte-pinned fitted-model artifact
  ``tests/test_calibrate_fit.py`` reproduces.

``tests/test_golden_corpus.py`` and ``tests/test_scenarios_golden.py``
assert the current code still reproduces these snapshots; diff any
regen before committing it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_corpus(logdir: Path) -> None:
    """One deterministic TPC-H query run, logs dumped to ``logdir``."""
    from repro.params import GB, SimulationParams
    from repro.spark.application import SparkApplication
    from repro.testbed import Testbed
    from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload

    bed = Testbed(params=SimulationParams(num_nodes=5), seed=11)
    dataset = TPCHDataset(2 * GB, name="golden-ds")
    app = SparkApplication(
        "golden-q1", TPCHQueryWorkload(dataset, query=1), num_executors=4
    )
    bed.submit(app)
    bed.run_until_all_finished(limit=5000)
    bed.dump_logs(logdir)


def main() -> int:
    from repro.core.checker import SDChecker
    from repro.faults import corrupt_copy

    golden = HERE / "golden"
    if golden.exists():
        shutil.rmtree(golden)
    golden.mkdir(parents=True)
    build_corpus(golden)

    report = SDChecker().analyze(golden)
    (HERE / "golden_expected.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )

    with tempfile.TemporaryDirectory() as scratch:
        corrupted = Path(scratch) / "logs"
        corrupt_copy(golden, corrupted, ["truncate-tail"], seed=0)
        degraded = SDChecker().analyze(corrupted)
        (HERE / "golden_expected_truncate_tail.json").write_text(
            json.dumps(
                degraded.to_dict(include_diagnostics=True), indent=2, sort_keys=True
            )
            + "\n"
        )

    files = sorted(p.name for p in golden.iterdir())
    print(f"golden corpus: {len(files)} file(s)")
    print("snapshots: golden_expected.json, golden_expected_truncate_tail.json")

    from repro.workloads.scenarios import SCENARIO_PRESETS

    for name, scenario in SCENARIO_PRESETS.items():
        # The run mines its in-memory store, which holds the rendered
        # log4j bytes a dump would write: the snapshot pins those
        # bytes, not the simulator's internal floats.
        report = scenario.run().report
        snapshot = HERE / f"scenario_{name.replace('-', '_')}_expected.json"
        snapshot.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"snapshot: {snapshot.name} ({len(report)} app(s))")

    from repro.calibrate import fit

    # One small calibration self-fit, pinned byte-for-byte: the search
    # seed, the grid thinning, the random substream draws, every
    # trial's mined decomposition, and the winning parameter blob.
    model = fit("diurnal-burst", seed=7, grid_limit=2, random_trials=2, jobs=1)
    fitted = HERE / "calibrate_diurnal_burst_fitted.json"
    fitted.write_text(model.dumps(), encoding="utf-8")
    print(
        f"snapshot: {fitted.name} ({len(model.trials)} trial(s), "
        f"best error {model.best.error})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
