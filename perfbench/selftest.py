"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# self times of properly nested single-thread spans add up to the unit's
# wall time up to float rounding: allow 1 ns per span plus 1e-9 of the wall
SELF_SUM_TOL_PER_SPAN = 1e-9
SELF_SUM_TOL_REL = 1e-9


@pytest.fixture
def small(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_UNITS", 1)
    monkeypatch.setattr(run, "ADVERSARY_T", 400)
    monkeypatch.setattr(run.ManyplayerExact, "horizon", 20)
    monkeypatch.setattr(run.AuctionSampled, "horizon", 10)


def bench(workload: str, trace: int, capsys) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, small, capsys):
    result = bench(workload, 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _installed_objects() -> dict:
    return {(module, path): spans._owner(module, path)[0].__dict__[path.split(".")[-1]]
            for module, path, _, _ in spans.BOUNDARIES}


def test_traced_run_restores_wrappers_and_reports_per_layer(small, capsys):
    inputs.import_commeq()
    before = _installed_objects()
    result = bench("adversary-stream", 1, capsys)
    after = _installed_objects()
    assert all(after[key] is before[key] for key in before)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["learners.step.calls"]["value"] == 400


def test_layer_self_times_sum_to_traced_wall(small, tmp_path):
    cli = inputs.import_commeq()
    ops = [run.Op("adversary", ["adversary", "-B", "3", "-T", "300"], 0),
           run.Op("simulate", ["simulate", os.path.join("fixtures", "matching_game.json"),
                               "-T", "50", "--out-dir", str(tmp_path)], 0),
           run.Op("representable", ["representable",
                                    os.path.join("fixtures", "guessing_game.json"),
                                    os.path.join("fixtures", "guessing_pi.json")], 0)]
    tracer = spans.Tracer()
    for _ in range(2):
        run.run_unit(cli, ops, tracer)
    per_layer = tracer.layer_self()
    walls = tracer.unit_walls()
    assert len(walls) == 2
    for unit, wall in enumerate(walls):
        total = sum(float(v[unit]) for v in per_layer.values())
        n = sum(1 for s in tracer.spans if s.unit == unit)
        assert abs(total - wall) <= SELF_SUM_TOL_PER_SPAN * n + SELF_SUM_TOL_REL * wall
    assert per_layer["learners"].min() > 0 and per_layer["dynamics"].min() > 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("bench.unit", 0.0, 10.0, -1, 0),
                    spans.Span("dynamics.run_dynamics", 1.0, 9.0, 0, 0),
                    spans.Span("dynamics.sampled_reward", 2.0, 5.0, 1, 0),   # pool thread 1
                    spans.Span("dynamics.sampled_reward", 4.0, 7.0, 1, 0),   # pool thread 2
                    spans.Span("transforms.power_fixed_point", 2.5, 3.0, 2, 0)]
    assert tracer.self_times().tolist() == [2.0, 3.0, 2.5, 3.0, 0.5]


def test_times_are_scaled_by_the_reference_passes_around_them():
    ref = run.REFERENCE_S
    scaled = run.at_reference_speed([1.0, 3.0], [ref, 3 * ref, 2 * ref, 2 * ref])
    assert scaled == pytest.approx([0.5, 1.5])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
