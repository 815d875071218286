"""Golden-run regression tests for the analytical (Fig. 5 / Fig. 8) path.

Every metric of the 30 ``paper-grid`` design points and of the
``all-optical-projection`` comparison is pinned with *exact* float
equality: routing, flow accumulation and latency averaging may be
restructured for speed, but each sum must keep its operand order, so
the numbers stay bit-identical.

Refresh the golden file only for *intentional* model changes::

    python tests/unit/test_analytical_golden.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.experiments import scenario_family
from repro.experiments.runner import evaluate_scenario

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_analytical.json"
)


def _scenarios():
    return scenario_family("paper-grid", seed=0) + scenario_family(
        "all-optical-projection", seed=0
    )


def _record_all() -> dict[str, dict]:
    return {s.label: evaluate_scenario(s) for s in _scenarios()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def measured() -> dict[str, dict]:
    return _record_all()


def test_golden_covers_every_point(golden, measured) -> None:
    assert len(measured) == 31
    assert sorted(golden) == sorted(measured)


def test_metrics_match_golden_exactly(golden, measured) -> None:
    for label, metrics in measured.items():
        # JSON round-trips floats exactly (repr), so == is bit equality.
        assert json.loads(json.dumps(metrics)) == golden[label], label


def test_golden_json_is_canonical() -> None:
    raw = GOLDEN_PATH.read_text()
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def _record() -> None:
    golden = _record_all()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} analytical points -> {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
