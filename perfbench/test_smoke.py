"""Smoke test for the benchmark itself.

Runs every workload at ``--size tiny`` (3 modules x 6 functions) for one
iteration, traced and untraced, and checks that:

- each prints exactly the metric names ``BENCHMARK.json`` declares, with
  their units, and a correct result;
- the traced run's self times are non-negative and together no larger
  than its wall (``self_times`` itself is checked on a hand-built span
  tree);
- stopping an xgcc process for host-speed readings leaves its output
  unchanged and its stopped time out of its wall;
- the correctness checks have teeth: with ``--corrupt-reference`` every
  workload fails its byte-identity check, and with ``--phantom-bug`` its
  ground-truth check;
- without the xgcc sources next to it the benchmark exits non-zero and
  prints no result.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_full", "warm_edit", "daemon_burst")

sys.path.insert(0, HERE)
import run as bench  # noqa: E402
import tracing  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.1", "--size", "tiny",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_printed_metrics():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        bench.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        bench.PER_LAYER
    )
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_self_times_subtract_direct_children():
    # (name, start, duration, parent index): a 10 s root with children
    # of 3 s and 4 s, the 4 s one holding a 1 s grandchild.
    spans = [("a", 0.0, 10.0, None), ("b", 1.0, 3.0, 0),
             ("c", 5.0, 4.0, 0), ("b", 6.0, 1.0, 2)]
    assert tracing.self_times(spans) == pytest.approx(
        {"a": 3.0, "b": 4.0, "c": 3.0}
    )


def test_speed_readings_stop_and_resume_xgcc(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    import workloads

    # The context points this process's temporary files into its scratch.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    ctx = workloads.Context(ROOT, "cold_full", 1, 1.0, False, "tiny")
    try:
        if ctx.all_cpus is None:
            pytest.skip("CPU affinity cannot be set here")
        generated = workloads.make_project(ctx)
        tree = ctx.fresh_dir("tree")
        workloads.write_tree(tree, generated)
        args = workloads.CHECKER_ARGS + workloads.tree_args(tree, generated)
        plain = workloads.run_xgcc(ctx, args, tree)
        # A reading every 20 ms: several while even a tiny run lasts.
        monkeypatch.setattr(workloads, "READING_INTERVAL_S", 0.02)
        first, paused = len(workloads.READINGS), workloads.PAUSED[0]
        start = time.perf_counter()
        run, seconds, scale = workloads.timed(
            lambda: workloads.run_xgcc(ctx, args, tree))
        elapsed = time.perf_counter() - start
    finally:
        ctx.cleanup()
        if ctx.all_cpus is not None:
            os.sched_setaffinity(0, ctx.all_cpus)
    readings = workloads.READINGS[first:]
    stopped = workloads.PAUSED[0] - paused
    assert len(readings) > 2 and stopped > 0
    assert run.code == plain.code == 1
    assert run.stdout == plain.stdout
    assert run.wall <= seconds < elapsed - stopped
    assert scale == pytest.approx(
        workloads.NOMINAL_UNIT_S / statistics.fmean(readings))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    result = _result(_run(workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_adds_up(workload):
    result = _result(_run(workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "cold_full":
        assert metrics["parallel.jobs2_wall_s"] > 0
        assert metrics["parallel.worker_busy_s"] > 0
    assert set(metrics) == {m["name"] for m in _benchmark_spec()["per_layer"]}
    self_times = [metrics[name] for name in bench.SPAN_METRICS.values()]
    # Mis-nested or overlapping spans would give a negative self time or
    # count one interval twice, so that the self times exceed the wall.
    assert min(self_times) >= 0
    assert metrics["traced_wall_s"] > 0
    assert sum(self_times) <= metrics["traced_wall_s"]
    assert metrics["unattributed_s"] >= 0
    assert metrics["error_rate"] == 0


def _failed_with(proc, message):
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] > 0
    problems = [line for line in proc.stdout.splitlines()
                if line.startswith("problem: ")]
    assert problems and all(message in line for line in problems), problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails(workload):
    # Only the byte-identity reference is corrupted: the ground truth
    # still holds, so every failure is the byte-identity check's.
    _failed_with(_run(workload, "--trace", "0", "--corrupt-reference"),
                 "differs from the serial cold reference")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_phantom_bug_fails(workload):
    _failed_with(_run(workload, "--trace", "0", "--phantom-bug"),
                 "double-free: found")


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
