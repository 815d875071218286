"""Extension bench — workload generator throughput and trace I/O.

Tracks the speed of the trace generators' hot paths: the Bernoulli open
loop (``synthetic_trace``, behind every saturation sweep), the ON/OFF
temporal generator (the default bursty model every sweep reaches for), the
application-skeleton phase scheduler, and the npz trace-store round-trip.
All four are `smoke`-tagged so the perf CI gate watches them alongside the
cycle simulator.

Correctness asserted on the same payloads: the bursty generator hits its
mean rate and out-bursts Bernoulli, and the store round-trips exactly.
"""

import pathlib
import tempfile

import pytest

from repro.bench import benchmark_spec
from repro.simulation import synthetic_trace
from repro.topology import build_mesh
from repro.traffic import uniform_traffic
from repro.workloads import (
    allreduce_trace,
    load_trace_npz,
    onoff_trace,
    save_trace_npz,
    stencil_trace,
    trace_stats,
)

GEN_CYCLES = 3000  # ~77k packets at rate 0.1 on the 16x16 mesh
SYNTH_RATE, SYNTH_CYCLES = 0.16, 1000  # ~41k packets on the 16x16 mesh


def _matrix_fixture():
    return uniform_traffic(build_mesh(16, 16), injection_rate=0.1)


@benchmark_spec(
    "workload_synthetic_gen",
    setup=_matrix_fixture,
    points=lambda trace: trace.n_packets,
    tags=("workload", "smoke"),
)
def gen_synthetic(tm):
    """Bernoulli trace generation, 256 nodes x 1000 cycles at rate 0.16."""
    return synthetic_trace(
        tm, injection_rate=SYNTH_RATE, cycles=SYNTH_CYCLES, seed=0
    )


@benchmark_spec(
    "workload_onoff_gen",
    setup=_matrix_fixture,
    points=lambda trace: trace.n_packets,
    tags=("workload", "smoke"),
)
def gen_onoff(tm):
    """ON/OFF bursty trace generation, 256 nodes x 3000 cycles at rate 0.1."""
    return onoff_trace(
        tm, injection_rate=0.1, cycles=GEN_CYCLES, duty=0.25, seed=0
    )


@benchmark_spec(
    "workload_skeleton_gen",
    points=lambda trace: trace.n_packets,
    tags=("workload", "smoke"),
)
def gen_skeletons():
    """Skeleton phase scheduling: 16x16 stencil + butterfly all-reduce."""
    st = stencil_trace(16, 16, iterations=4)
    ar = allreduce_trace(16, 16, iterations=2)
    # Return the larger for the throughput denominator; both are built.
    return st if st.n_packets >= ar.n_packets else ar


def _io_fixture():
    tm = uniform_traffic(build_mesh(16, 16), injection_rate=0.1)
    trace = onoff_trace(tm, injection_rate=0.1, cycles=1500, duty=0.25, seed=1)
    # The TemporaryDirectory handle rides along in the fixture so the
    # directory outlives every timed repeat and is removed on GC.
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-io-")
    return trace, pathlib.Path(tmpdir.name) / "trace.npz", tmpdir


@benchmark_spec(
    "workload_trace_io",
    setup=_io_fixture,
    points=lambda pair: pair[0].n_packets,
    tags=("workload", "smoke"),
)
def trace_io_round_trip(fixture):
    """npz trace store: save + load round-trip of a ~38k-packet trace."""
    trace, path, _tmpdir = fixture
    save_trace_npz(trace, path)
    return load_trace_npz(path), trace


def test_workload_synthetic_gen(run_bench):
    trace = run_bench("workload_synthetic_gen")
    measured = trace.total_flits / (256 * SYNTH_CYCLES)
    assert measured == pytest.approx(SYNTH_RATE, rel=0.05)
    assert trace.duration_cycles <= SYNTH_CYCLES


def test_workload_onoff_gen(run_bench):
    trace = run_bench("workload_onoff_gen")
    measured = trace.total_flits / (256 * GEN_CYCLES)
    assert measured == pytest.approx(0.1, rel=0.1)
    # The point of the model: same mean rate, far burstier than Bernoulli.
    bern = synthetic_trace(
        _matrix_fixture(), injection_rate=0.1, cycles=GEN_CYCLES, seed=0
    )
    assert trace_stats(trace).burstiness > 2 * trace_stats(bern).burstiness


def test_workload_skeleton_gen(run_bench):
    trace = run_bench("workload_skeleton_gen")
    assert trace.n_packets > 0
    assert trace_stats(trace, gap=128).n_phases > 1


def test_workload_trace_io(run_bench):
    loaded, original = run_bench("workload_trace_io")
    assert loaded == original
