"""Write ``digests.json``: per-point metric digests for the pinned seeds.

    python3 perfbench/pin_digests.py

Run once on the commit whose outputs are taken as correct. The README
points are evaluated on both engines and must agree before they are
pinned; every other table comes from the runner's default path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
import workloads as wl

PINNED_SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


def table(workload: str, seed: int) -> dict[str, str]:
    from repro.experiments import Runner

    batch = wl.scenarios(workload, seed)
    got = {r.scenario.label: wl.digest(r.metrics) for r in Runner(jobs=1).run(batch)}
    if workload == "sweep-saturated":
        interp = [replace(s, sim=replace(s.sim, engine="interpreter")) for s in batch]
        other = {r.scenario.label: wl.digest(r.metrics) for r in Runner(jobs=1).run(interp)}
        if other != got:
            raise SystemExit(f"engines disagree on seed {seed}: {got} vs {other}")
    return got


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    out = {
        key: {str(seed): table(workload, seed) for seed in PINNED_SEEDS}
        for key, workload in (
            ("dse-grid", "dse-grid"),
            ("sweep-light", "sweep-light"),
            ("readme", "sweep-saturated"),
        )
    }
    wl.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
