"""Batched-engine throughput vs the reference interpreter.

Not a paper figure: these records quantify the two wins of
:class:`repro.simulation.BatchSimulator` — the vectorized per-cycle hot
loop on a single run, and the amortization of one scenario family's
shared state across a whole rate sweep. ``interpreter_sweep_16pt`` and
``batch_engine_sweep_16pt`` time the *identical* 16-point 8x8 saturation
family through both engines; the CI bench-smoke gate asserts the batched
sweep sustains >= 3x the interpreter's points/sec (the engines are
bit-identical, so the comparison is purely about speed).
``interpreter_sweep_saturated`` and ``batch_engine_sweep_saturated`` do
the same past the knee, where the batched engine's exactness guard fires
on a large share of cycles; CI gates that pair at >= 1x.
"""

import numpy as np

from repro.bench import benchmark_spec
from repro.simulation import BatchSimulator, Simulator
from repro.topology import RoutingTable, build_mesh
from repro.traffic import PacketRecord, Trace

SWEEP_RATES = [0.02 + 0.02 * i for i in range(16)]
"""Injection rates of the 8x8 saturation family, all in the drained
(pre-saturation) region where the batched engine's exactness guard never
fires."""
SATURATED_RATES = [round(0.30 + 0.05 * i, 2) for i in range(8)]
"""Injection rates 0.30-0.65 of the 8x8 family: at and past the knee,
where the exactness guard fires."""
SWEEP_WINDOW = 600
N_NODES = 64


def _rate_trace(seed: int, rate: float) -> Trace:
    rng = np.random.default_rng(seed)
    n_packets = int(rate * N_NODES * SWEEP_WINDOW)
    records = []
    for _ in range(n_packets):
        s, d = rng.choice(N_NODES, size=2, replace=False)
        records.append(
            PacketRecord(int(rng.integers(0, SWEEP_WINDOW)), int(s), int(d), 1)
        )
    return Trace(N_NODES, records)


def _sweep_fixture():
    """Mesh, routing and the 16 family traces, built outside the timer —
    both engines receive identical inputs."""
    mesh = build_mesh(8, 8)
    routing = RoutingTable(mesh)
    traces = [
        _rate_trace(1000 + i, rate) for i, rate in enumerate(SWEEP_RATES)
    ]
    return mesh, routing, traces


@benchmark_spec(
    "interpreter_sweep_16pt",
    setup=_sweep_fixture,
    points=len(SWEEP_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_interpreter_sweep(fixture):
    """16-point 8x8 saturation family, one interpreter run per point."""
    mesh, routing, traces = fixture
    sim = Simulator(mesh, routing)
    return [sim.run(trace, max_cycles=2_000_000) for trace in traces]


@benchmark_spec(
    "batch_engine_sweep_16pt",
    setup=_sweep_fixture,
    points=len(SWEEP_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_batch_engine_sweep(fixture):
    """The same 16-point family as one amortized run_batch call."""
    mesh, routing, traces = fixture
    bsim = BatchSimulator(mesh, routing)
    return bsim.run_batch(traces, max_cycles=2_000_000)


def _saturated_fixture():
    mesh = build_mesh(8, 8)
    traces = [
        _rate_trace(2000 + i, rate) for i, rate in enumerate(SATURATED_RATES)
    ]
    return mesh, RoutingTable(mesh), traces


@benchmark_spec(
    "interpreter_sweep_saturated",
    setup=_saturated_fixture,
    points=len(SATURATED_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_interpreter_sweep_saturated(fixture):
    """8-point saturated 8x8 family, one interpreter run per point."""
    return run_interpreter_sweep(fixture)


@benchmark_spec(
    "batch_engine_sweep_saturated",
    setup=_saturated_fixture,
    points=len(SATURATED_RATES),
    tags=("perf", "simulation", "smoke"),
)
def run_batch_engine_sweep_saturated(fixture):
    """The same saturated family as one amortized run_batch call."""
    return run_batch_engine_sweep(fixture)


def _single_fixture():
    mesh = build_mesh(8, 8)
    return BatchSimulator(mesh, RoutingTable(mesh)), _rate_trace(77, 0.24)


@benchmark_spec(
    "batch_engine_single_run",
    setup=_single_fixture,
    points=1,
    tags=("perf", "simulation", "smoke"),
)
def run_batch_engine_single(fixture):
    """One vectorized cycle-loop run (B=1) of a 0.24-rate 8x8 trace."""
    bsim, trace = fixture
    return bsim.run(trace, max_cycles=2_000_000)


def test_perf_batch_engine_single(run_bench):
    stats = run_bench("batch_engine_single_run")
    assert stats.drained


def test_perf_sweep_amortization(run_bench):
    """Both engines must produce bit-identical sweeps; the speedup itself
    is gated in CI from the two BENCH records."""
    ref = run_bench("interpreter_sweep_16pt")
    got = run_bench("batch_engine_sweep_16pt")
    assert len(ref) == len(got) == len(SWEEP_RATES)
    for a, b in zip(ref, got):
        assert a.drained and b.drained
        assert a.cycles == b.cycles
        assert np.array_equal(a.packet_latencies, b.packet_latencies)
        assert np.array_equal(a.link_flit_counts, b.link_flit_counts)


def test_perf_sweep_saturated(run_bench):
    """Past the knee both engines must still agree bit for bit."""
    ref = run_bench("interpreter_sweep_saturated")
    got = run_bench("batch_engine_sweep_saturated")
    assert len(ref) == len(got) == len(SATURATED_RATES)
    for a, b in zip(ref, got):
        assert a.cycles == b.cycles
        assert np.array_equal(a.packet_latencies, b.packet_latencies)
        assert np.array_equal(a.link_flit_counts, b.link_flit_counts)
