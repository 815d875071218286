"""Trace bytes pinned for every trace generator.

Three guards on the exact packets a generator emits:

* ``synthetic_trace`` against a per-packet reference loop kept here
  (one ``rng.choice`` per packet, records sorted by ``(time, src,
  dst)``) over non-uniform rows, zero rows, both ``rng.geometric``
  paths (packet rates below and above 1/3) and two packet sizes;
* a sha256 of the four int64 columns for every registered temporal
  model, the hotspot matrix and overlay, the NPB kernels and the
  application skeletons;
* exact round trips through the text and npz trace stores.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.simulation.workload import synthetic_trace
from repro.topology.mesh import build_mesh
from repro.traffic import (
    load_trace,
    neighbor_traffic,
    save_trace,
    soteriou_traffic,
    transpose_traffic,
    uniform_traffic,
)
from repro.traffic.npb import NPB_KERNELS, cg_trace, ft_trace, lu_trace, mg_trace
from repro.workloads import SKELETONS, TEMPORAL_MODELS, WorkloadSpec
from repro.workloads.store import load_trace_npz, save_trace_npz

COLUMNS = ("time", "src", "dst", "size_flits")


def _reference_synthetic_rows(traffic, *, injection_rate, cycles, packet_flits, seed):
    """The per-packet Bernoulli loop: one ``rng.choice`` per packet."""
    rng = np.random.default_rng(seed)
    n = traffic.n_nodes
    tm = traffic.scaled_to_injection_rate(injection_rate)
    rates = tm.injection_rates() / packet_flits
    row_sums = tm.matrix.sum(axis=1, keepdims=True)
    dest_probs = np.divide(
        tm.matrix, row_sums, out=np.zeros_like(tm.matrix), where=row_sums > 0
    )
    rows = []
    for s in range(n):
        if rates[s] <= 0:
            continue
        t = int(rng.geometric(min(1.0, rates[s]))) - 1
        while t < cycles:
            d = int(rng.choice(n, p=dest_probs[s]))
            rows.append((t, s, d, packet_flits))
            t += int(rng.geometric(min(1.0, rates[s])))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _digest(trace) -> str:
    cols = trace.columns()
    h = hashlib.sha256()
    for key in COLUMNS:
        h.update(np.ascontiguousarray(cols[key], dtype="<i8").tobytes())
    return h.hexdigest()


MESH = build_mesh(8, 8)
MATRICES = {
    "uniform": lambda: uniform_traffic(MESH),
    "soteriou": lambda: soteriou_traffic(MESH, p=0.05, seed=11),
    "transpose": lambda: transpose_traffic(MESH),
    "neighbor": lambda: neighbor_traffic(MESH),
}


class TestSyntheticMatchesReference:
    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    @pytest.mark.parametrize("rate", [0.1, 0.5])
    @pytest.mark.parametrize("packet_flits", [1, 4])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_columns_equal(self, matrix, rate, packet_flits, seed):
        traffic = MATRICES[matrix]()
        kwargs = dict(
            injection_rate=rate, cycles=300, packet_flits=packet_flits, seed=seed
        )
        ref = _reference_synthetic_rows(traffic, **kwargs)
        cols = synthetic_trace(traffic, **kwargs).columns()
        assert ref.shape[0] > 0
        for i, key in enumerate(COLUMNS):
            assert cols[key].dtype == np.int64
            np.testing.assert_array_equal(cols[key], ref[:, i])

    def test_high_rate_takes_the_geometric_search_path(self):
        # Per-node packet rate 0.5 >= 1/3: numpy's search sampler.
        traffic = uniform_traffic(MESH)
        tm = traffic.scaled_to_injection_rate(0.5)
        assert tm.injection_rates().min() >= 1 / 3


def _workload(model, **params):
    spec = WorkloadSpec.make(
        model,
        injection_rate=params.pop("injection_rate", 0.2),
        cycles=params.pop("cycles", 400),
        packet_flits=params.pop("packet_flits", 1),
        seed=params.pop("seed", 3),
        traffic=params.pop("traffic", "uniform"),
        **params,
    )
    return lambda: spec.build(MESH)


GENERATORS = {
    "bernoulli": _workload("bernoulli"),
    "bernoulli-soteriou": _workload(
        "bernoulli", traffic="soteriou", traffic_p=0.05, packet_flits=2
    ),
    "onoff": _workload("onoff", duty=0.5, burst_len=16.0),
    "pareto": _workload("pareto", injection_rate=0.1, alpha=1.4),
    "modulated": _workload("modulated"),
    "modulated-square": _workload("modulated", envelope="square", depth=0.3),
    "mix": _workload(
        "mix", components=(("onoff", 0.5), ("bernoulli", 0.3), ("modulated", 0.2))
    ),
    "hotspot-matrix": _workload("bernoulli", traffic="hotspot", injection_rate=0.1),
    "hotspot-overlay": _workload(
        "onoff", hotspot_nodes=(0, 27), hotspot_fraction=0.4, duty=0.5
    ),
    "npb-FT": lambda: ft_trace(volume_scale=1e-6, iterations=1),
    "npb-CG": lambda: cg_trace(volume_scale=1e-3, iterations=2),
    "npb-MG": lambda: mg_trace(volume_scale=1e-2, iterations=1),
    "npb-LU": lambda: lu_trace(volume_scale=0.5, iterations=2),
    "stencil": lambda: SKELETONS["stencil"](4, 4, corners=True, iterations=2),
    "allreduce": lambda: SKELETONS["allreduce"](4, 4, iterations=2),
    "fft_transpose": lambda: SKELETONS["fft_transpose"](4, 4, volume_bytes=1 << 14),
    "wavefront": lambda: SKELETONS["wavefront"](4, 4, sweeps=2),
}

#: ``(n_packets, sha256 of the four columns)`` per generator case.
PINNED = {
    "allreduce": (
        4096,
        "33b7299646c617ac5c66b9b174d24a41f8fb04baa169353b8d8a604e90de43f3",
    ),
    "bernoulli": (
        5179,
        "004859061d5153a8cb79064319328206d858c3dc7de9d5de5705a0bcebaa4b5e",
    ),
    "bernoulli-soteriou": (
        2507,
        "40394d945b140a70849f79217219fd69b2d4f47f8757e490e2b8f17cb13712ab",
    ),
    "fft_transpose": (
        1536,
        "6bef844c28106b3468092b348cbdecadba3609ddbf0b7318b656e1e259e9c6e8",
    ),
    "hotspot-matrix": (
        2579,
        "c704025558f8a25235ba0f5b80f4577cca394a2e6b5beafe30763a398e741529",
    ),
    "hotspot-overlay": (
        5090,
        "301840e9d9faef3db6a1491a8d70442ecb5635ab354d7578c856d42788b78751",
    ),
    "mix": (
        5166,
        "0879b15896c7bc8be17a10fb1377c3b7f1a31b9beb250447fec201b04c78e76e",
    ),
    "modulated": (
        5563,
        "06ddf7e875f8809f2c60a53322a3c67b288c46c9165adb5698e795bdfafff3c6",
    ),
    "modulated-square": (
        5487,
        "49c51c199905b6d663579830d0ae758b007fa8968eac073250b00afd513b8b81",
    ),
    "npb-CG": (
        32864,
        "8367a590e668cae00275ec4d9ee805228a640fe9a0d6ae582d60ba5eee37a60d",
    ),
    "npb-FT": (
        65280,
        "8f15d81f3128ed64aec6bd30d597a4f16d13f4e76cf7ed82c356a7b358b39fdd",
    ),
    "npb-LU": (
        15360,
        "29ba42997190acd85c58256b7b805d88ea74dc0baf2f9f3f799b253dde355579",
    ),
    "npb-MG": (
        111616,
        "389a2c96fbcf1c13c1fef82bcf587e668ca8a46d7fecee8ccb8f5c4a4ededc28",
    ),
    "onoff": (
        5045,
        "fbff9d08e29090b5151fbcbe9adeea2442565666f73426c68eeef04448dfdc90",
    ),
    "pareto": (
        2537,
        "094f6fc0a711ceaee6768298b97fb3d28bb64e67f3f47379a983837a4cabeee8",
    ),
    "stencil": (
        1824,
        "b23a12676ad0924a1ed0a3d678eb605e20398d3059f7db2968b428721483c459",
    ),
    "wavefront": (
        768,
        "13a6aa800eb9fcceffac6d712e3893d7b35c30b570b4df470f18c0b50c604911",
    ),
}


class TestGeneratorDigests:
    def test_every_registered_generator_is_pinned(self):
        names = set(PINNED)
        assert set(TEMPORAL_MODELS) <= names
        assert set(SKELETONS) <= names
        assert {f"npb-{k}" for k in NPB_KERNELS} <= names
        assert set(GENERATORS) == names

    @pytest.mark.parametrize("case", sorted(GENERATORS))
    def test_digest(self, case):
        trace = GENERATORS[case]()
        assert (trace.n_packets, _digest(trace)) == PINNED[case]


class TestStoreRoundTrip:
    @pytest.fixture(scope="class")
    def trace(self):
        return GENERATORS["hotspot-overlay"]()

    def _assert_same(self, got, trace):
        assert got == trace
        assert (got.n_nodes, got.name) == (trace.n_nodes, trace.name)
        for key in COLUMNS:
            np.testing.assert_array_equal(got.columns()[key], trace.columns()[key])
        assert _digest(got) == _digest(trace)

    def test_text_round_trip(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        self._assert_same(load_trace(path), trace)

    def test_npz_round_trip(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace_npz(trace, path)
        self._assert_same(load_trace_npz(path), trace)

    def test_npz_bytes_are_stable(self, trace, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_trace_npz(trace, a)
        save_trace_npz(load_trace_npz(a), b)
        assert a.read_bytes() == b.read_bytes()
