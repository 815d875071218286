"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.ROOT / "src"))


def _span(sid, name, tier, thread, start, end, parent=None):
    return tracing.Span(sid, parent, name, tier, thread, start, end)


def test_attribution_partitions_the_region():
    spans = [
        _span(1, "outer", tracing.WORK, 1, 10, 90),
        _span(2, "inner", tracing.WORK, 1, 20, 40, parent=1),
        # A waiting client on another thread yields to program work ...
        _span(3, "client", tracing.CLIENT, 2, 30, 95),
        # ... while work entered later on another thread takes the time.
        _span(4, "late", tracing.WORK, 3, 50, 60),
    ]
    got = tracing.attribute(spans, 0, 100)
    assert got == {
        tracing.UNATTRIBUTED: 10 + 5,
        "outer": 10 + 10 + 30,
        "inner": 20,
        "late": 10,
        "client": 5,
    }
    assert sum(got.values()) == 100


def test_layer_metrics_add_up_to_traced_wall():
    rec = tracing.Recorder()
    with rec.span("bench.unit", tracing.ROOT):
        for name in run.LAYER_SPANS:
            if name != tracing.UNATTRIBUTED:
                with rec.span(name):
                    sum(range(1000))
    out = run.layer_metrics(rec, 0.0, wl.Measure())
    layers = sum(out[m] for m in set(run.LAYER_SPANS.values()))
    assert layers == pytest.approx(out["bench.traced_wall_s"], abs=1e-9)


def test_tampered_metrics_trip_the_output_check():
    from repro.experiments import evaluate_scenario

    point = wl.scenarios("dse-grid", run.DEFAULT_SEED)[0]
    metrics = evaluate_scenario(point)

    good = wl.Measure(digests=[{point.label: wl.digest(metrics)}])
    wl.check_outputs("dse-grid", run.DEFAULT_SEED, good)
    assert good.tally.failed == 0

    metrics["clear"] *= 1.0 + 1e-12
    bad = wl.Measure(digests=[{point.label: wl.digest(metrics)}])
    wl.check_outputs("dse-grid", run.DEFAULT_SEED, bad)
    assert bad.tally.failed == 1


def test_a_missing_tracing_target_fails_loudly(monkeypatch):
    from repro.experiments.runner import Runner
    from repro.obs.ledger import RunLedger

    original = Runner.run_iter
    monkeypatch.delattr(RunLedger, "append")
    with pytest.raises(LookupError, match="RunLedger.append"):
        tracing.install(tracing.Recorder())
    # Targets wrapped before the missing one are restored.
    assert Runner.run_iter is original


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_with_no_point_done_reports_incorrect(trace, monkeypatch, capsys):
    from repro.experiments import Runner

    def broken(self, scenarios):
        raise RuntimeError("engine down")

    monkeypatch.setattr(Runner, "run", broken)
    monkeypatch.setattr(run, "measure_setup", lambda *args: 1.0)
    assert run.main(["--workload", "sweep-light", "--seconds", "0.1",
                     "--trace", trace]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] >= 1


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    proc = _run("--workload", "sweep-saturated", "--seed", "0", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: m["unit"] for name, m in doc["metrics"].items()
    } == {d["name"]: d["unit"] for d in declared}
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    if trace == "1":
        layers = sum(values[m] for m in set(run.LAYER_SPANS.values()))
        assert layers == pytest.approx(values["bench.traced_wall_s"], rel=1e-9)
        assert values["simulation.scalar_replay_s"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dse-grid", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
