"""Write ``baseline.json``: each layer's share of the traced wall time, per
workload, as measured on this commit, with the environment it ran in.

    python3 perfbench/record_baseline.py

Each workload runs traced for ``run_seconds`` from ``BENCHMARK.json``,
as the benchmark's own runs do. Shares are per-layer metrics divided by
``bench.traced_wall_s``. Engine phases are shares too; they sit inside
``simulation.run_s``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads as wl


def traced(workload: str, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", str(seconds), "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload}: output check failed\n{proc.stderr}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.bench.runner import environment_fingerprint

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    timed = set(run.LAYER_SPANS.values()) | {
        f"simulation.{engine}.{phase}_s"
        for engine, phases in run.PHASES.items() for phase in phases
    } | {"simulation.scalar_replay_s"}
    shares, counts = {}, {}
    for workload in wl.WORKLOADS:
        values = traced(workload, seconds)
        wall = values["bench.traced_wall_s"]
        shares[workload] = {
            k: round(v / wall, 4) for k, v in sorted(values.items())
            if k in timed and v
        }
        counts[workload] = {
            k: v for k, v in sorted(values.items()) if k not in timed and v
        }
    doc = {
        "seeds": {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED},
        "environment": environment_fingerprint(),
        "traced_seconds": seconds,
        "shares_of_traced_wall": shares,
        "other_per_layer_values": counts,
    }
    out = run.ROOT / "perfbench" / "baseline.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
