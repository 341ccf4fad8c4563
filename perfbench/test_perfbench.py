"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench``.

Runs each workload for a second, traced and untraced, and checks the
contract of the output: every metric named in ``BENCHMARK.json`` is
emitted with its unit, the ledger adds up, counts that do not depend on
timing repeat, the output checks reject a tampered result, and a traced
run whose hook target is gone fails instead of reporting zero.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ledger  # noqa: E402
import speed  # noqa: E402
from spans import HookMissing, SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170)


def run_once(workload: str, trace: int) -> dict:
    """The parsed last line of one one-second run with seed 7."""
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_results: dict = {}


def result(workload: str, trace: int) -> dict:
    """:func:`run_once`, shared between the tests that only read it."""
    if (workload, trace) not in _results:
        _results[workload, trace] = run_once(workload, trace)
    return _results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    for name, metric in out["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_parts_sum_to_end_to_end(workload):
    metrics = result(workload, 1)["metrics"]
    parts = sum(metrics[f"ledger.{p}_us_per_op"]["value"]
                for p in ledger.LEDGER_PARTS)
    total = metrics["ledger.e2e_us_per_op"]["value"]
    assert parts == pytest.approx(total, rel=1e-9)
    assert metrics["server.unattributed_us_per_op"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timing_free_counts_repeat_for_one_seed(workload):
    first = result(workload, 1)["metrics"]
    second = run_once(workload, 1)["metrics"]
    for name in ledger.DETERMINISTIC_COUNTS[workload]:
        assert first[name]["value"] == second[name]["value"], name


def _history():
    """Two acked commits and reads around them, as a client logs them:
    ``(kind, start, end, timed, detail)``."""
    records = [
        ("commit", 1.0, 2.0, True, "v1"),
        ("commit", 3.0, 4.0, True, "v2"),
        ("read", 2.5, 2.8, True, ("manager", 4)),
        ("read", 3.5, 4.5, True, ("manager", 3)),
        ("read", 3.5, 4.5, True, ("manager", 4)),
    ]
    dump = {"audit_ok": True, "head": "v2", "digest": "d",
            "relations": ["manager"], "main": ["v0", "v1", "v2"],
            "sizes": {"v0": [3], "v1": [4], "v2": [3]}}
    replica = {"head": "v2", "digest": "d"}
    return records, dump, replica


def test_checks_accept_a_consistent_history():
    records, dump, replica = _history()
    assert checks.check_run(records, dump, replica) == []
    assert checks.check_reads(records, dump) == []


def test_checks_reject_a_tampered_result():
    records, dump, replica = _history()
    del dump["sizes"]["v1"]  # an acked version missing from the graph
    assert any("missing" in p
               for p in checks.check_run(records, dump, replica))

    records, dump, replica = _history()
    records.append(("read", 4.5, 4.6, True, ("manager", 4)))  # stale
    assert len(checks.check_reads(records, dump)) == 1

    records, dump, replica = _history()
    dump["audit_ok"] = False
    assert checks.check_run(records, dump, replica)
    records, dump, replica = _history()
    assert checks.check_run(records, dump, dict(replica, digest="x"))


def test_speed_probe_samples_until_stopped():
    import time

    probe = speed.SpeedProbe()
    try:
        time.sleep(0.35)
        probe.stop()
    finally:
        probe.kill()
    assert len(probe.samples) >= 2
    first, last = probe.samples[0][0], probe.samples[-1][0]
    assert probe.slowdown(first, last) > 0


def test_slowdown_takes_the_window_median_or_the_nearest_probe():
    probe = speed.SpeedProbe.__new__(speed.SpeedProbe)
    ref = speed.REFERENCE_S
    probe.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref)]
    probe._starts = [1.0, 2.0, 3.0]
    assert probe.slowdown(0.5, 2.5) == pytest.approx(1.5)
    assert probe.slowdown(1.0, 3.0) == pytest.approx(2.0)
    assert probe.slowdown(2.2, 2.3) == pytest.approx(2.0)
    assert probe.slowdown(2.7, 2.8) == pytest.approx(4.0)
    assert probe.slowdown(5.0, 6.0) == pytest.approx(4.0)
    assert probe.slowdown(0.0, 0.1) == pytest.approx(1.0)


def test_a_missing_hook_target_raises():
    recorder = SpanRecorder()
    with pytest.raises(HookMissing):
        recorder.install([("repro.store.engine", "StoreEngine.gone", "x")])
    with pytest.raises(HookMissing):
        recorder.install([("repro.store.engine", "NoSuchClass.commit",
                           "x")])


def test_every_hook_target_exists():
    import launcher
    import recovery
    import run

    recorder = SpanRecorder()
    try:
        recorder.install(launcher.SERVER_HOOKS + run.CLIENT_HOOKS
                         + recovery.REPLICA_HOOKS)
    finally:
        recorder.uninstall()


def _copy(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_traced_run_fails_when_a_layer_is_renamed(tmp_path):
    root = _copy(tmp_path, with_sources=True)
    launcher = root / "perfbench" / "launcher.py"
    text = launcher.read_text()
    assert '"Session.commit"' in text
    launcher.write_text(text.replace('"Session.commit"',
                                     '"Session.commit_renamed"'))
    done = bench("--workload", "mixed_contended", "--seed", "1",
                 "--seconds", "1", "--trace", "1", root=root)
    assert done.returncode != 0
    assert "HookMissing" in done.stderr
    assert '"correct"' not in done.stdout


def test_fails_without_the_store_sources(tmp_path):
    root = _copy(tmp_path, with_sources=False)
    done = bench("--workload", "read_head", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=root)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
