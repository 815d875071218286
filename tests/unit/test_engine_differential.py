"""Differential tests: batched engine vs the reference interpreter.

The two execution engines implement one defined semantics (sequential
ascending-node allocation, instant credit return); these tests pin
bit-for-bit :class:`~repro.simulation.simulator.SimStats` equality across
randomized topologies, VC configurations and bursty / hotspot workloads,
plus the engine seam in the experiment runner.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import (
    Runner,
    Scenario,
    SimSpec,
    TopologySpec,
    TrafficSpec,
    scenario_family,
)
from repro.obs.profile import PhaseProfile
from repro.simulation import BatchSimulator, SimConfig, Simulator
from repro.tech.parameters import Technology
from repro.topology import (
    RoutingTable,
    build_express_mesh,
    build_mesh,
    build_torus,
)
from repro.traffic import PacketRecord, Trace


def _random_case(seed: int):
    """One randomized (topology, config, trace, cap) differential case."""
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, 4))
    w, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    if kind == 0:
        topo = build_mesh(w, h)
    elif kind == 1:
        topo = build_torus(max(w, 3), max(h, 3))
    else:
        topo = build_express_mesh(max(w, 3), max(h, 3), hops=2)
    n = topo.n_nodes
    cfg = SimConfig(
        n_vcs=int(rng.choice([1, 2, 4])),
        vc_depth=int(rng.integers(1, 5)),
        router_pipeline=int(rng.integers(1, 4)),
    )
    window = int(rng.integers(1, 60))
    hot = int(rng.integers(0, n))
    records = []
    for _ in range(int(rng.integers(0, 100))):
        s, d = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.4 and hot != s:
            d = hot  # hotspot concentration
        if s == d:
            continue
        t = int(rng.integers(0, window))
        if rng.random() < 0.3:
            t = int(rng.integers(0, 5))  # bursty pile-up
        records.append(
            PacketRecord(t, int(s), int(d), int(rng.choice([1, 2, 4, 8])))
        )
    cap = int(rng.choice([30, 120, 2_000_000]))
    return topo, cfg, Trace(n, records), cap


def _assert_stats_equal(ref, got) -> None:
    assert ref.n_packets == got.n_packets
    assert ref.n_flits == got.n_flits
    assert ref.cycles == got.cycles
    assert ref.drained == got.drained
    assert np.array_equal(ref.packet_latencies, got.packet_latencies)
    assert np.array_equal(ref.link_flit_counts, got.link_flit_counts)
    assert np.array_equal(ref.router_flit_counts, got.router_flit_counts)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_single_run_bit_identical(self, seed):
        topo, cfg, trace, cap = _random_case(seed)
        ref = Simulator(topo, config=cfg).run(trace, max_cycles=cap)
        got = BatchSimulator(topo, config=cfg).run(trace, max_cycles=cap)
        _assert_stats_equal(ref, got)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_batch_equals_individual_runs(self, seed):
        """One run_batch over mixed traces/caps == per-trace interpreter
        runs: batching must not couple independent runs."""
        rng = np.random.default_rng(seed)
        topo = build_mesh(4, 4)
        cfg = SimConfig(n_vcs=2, vc_depth=2)
        traces, caps = [], []
        for i in range(4):
            _, _, trace, _ = _random_case(int(rng.integers(0, 100_000)))
            traces.append(Trace(topo.n_nodes, [
                PacketRecord(p.time, p.src % topo.n_nodes,
                             p.dst % topo.n_nodes, p.size_flits)
                for p in trace.packets
                if p.src % topo.n_nodes != p.dst % topo.n_nodes
            ]))
            caps.append(int(rng.choice([60, 2_000_000])))
        batch = BatchSimulator(topo, config=cfg).run_batch(
            traces, max_cycles=caps
        )
        sim = Simulator(topo, config=cfg)
        for trace, cap, got in zip(traces, caps, batch):
            _assert_stats_equal(sim.run(trace, max_cycles=cap), got)

    def test_guard_cascade_needs_several_waves(self):
        """A congested 4x4 case (1 VC, depth 1) in which a same-cycle
        credit return enables a router whose own grants then enable a
        further one: the guard's fixpoint needs more waves than guarded
        cycles, and one patch-up pass per cycle would diverge here."""
        rng = np.random.default_rng(27)
        records = []
        for _ in range(20):
            s, d = rng.choice(16, size=2, replace=False)
            records.append(PacketRecord(
                int(rng.integers(0, 8)), int(s), int(d), int(rng.choice([1, 2]))
            ))
        topo, cfg = build_mesh(4, 4), SimConfig(n_vcs=1, vc_depth=1)
        trace = Trace(topo.n_nodes, records)
        prof = PhaseProfile()
        got = BatchSimulator(topo, config=cfg).run(
            trace, max_cycles=2_000, profile=prof
        )
        ref = Simulator(topo, config=cfg).run(trace, max_cycles=2_000)
        _assert_stats_equal(ref, got)
        assert prof.counts["guard_waves"] > prof.counts["scalar_replay_cycles"]

    def test_empty_trace(self):
        topo = build_mesh(3, 3)
        trace = Trace(topo.n_nodes, [])
        ref = Simulator(topo).run(trace, max_cycles=100)
        got = BatchSimulator(topo).run(trace, max_cycles=100)
        _assert_stats_equal(ref, got)

    def test_dynamic_energy_matches_interpreter_recipe(self):
        from repro.simulation import sim_dynamic_energy_j

        topo = build_mesh(4, 4)
        rng = np.random.default_rng(5)
        records = []
        for _ in range(40):
            s, d = rng.choice(topo.n_nodes, size=2, replace=False)
            records.append(PacketRecord(int(rng.integers(0, 50)), int(s), int(d), 2))
        trace = Trace(topo.n_nodes, records)
        bsim = BatchSimulator(topo)
        stats = bsim.run(trace, max_cycles=2_000_000)
        ref = sim_dynamic_energy_j(topo, stats)
        got = bsim.dynamic_energy_j(stats)
        assert got.router_dynamic_j == pytest.approx(ref.router_dynamic_j)
        assert got.link_dynamic_j == pytest.approx(ref.link_dynamic_j)


class TestReadmeFamilyAtScale:
    """The README's 16x16 ``saturation-sweep`` points through both engines.

    The fuzzed cases above stay at or below 6x6 and a few hundred
    packets; these points carry tens of thousands of packets and the
    0.3 rate saturates, so most of the exactness guard's work happens
    here. The batched profile must show the guard firing, or the test
    would not exercise it.
    """

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_with_guard_firing(self, seed):
        scns = scenario_family(
            "saturation-sweep", rates=(0.1, 0.2, 0.3), cycles=200,
            seed=seed, engine="batched",
        )
        topo = scns[0].topology.build()
        routing = RoutingTable(topo)
        cfg = scns[0].sim.sim_config()
        traces = [s.traffic.trace(topo, sim=s.sim) for s in scns]
        caps = [s.sim.cycle_budget(s.traffic.trace_based) for s in scns]
        prof = PhaseProfile()
        got = BatchSimulator(topo, routing, cfg).run_batch(
            traces, max_cycles=caps, profile=prof
        )
        sim = Simulator(topo, routing, cfg)
        for trace, cap, stats in zip(traces, caps, got):
            _assert_stats_equal(sim.run(trace, max_cycles=cap), stats)
        assert prof.counts["scalar_replay_cycles"] > 0


class TestEngineSeam:
    def _scenarios(self, engine: str):
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4)
        sim = SimSpec(cycles=200, drain_budget=5_000, engine=engine)
        return [
            Scenario(
                kind="simulation",
                topology=topo,
                traffic=TrafficSpec.make(
                    "uniform", injection_rate=rate, seed=7
                ),
                sim=sim,
                name=f"{engine}-{rate}",
            )
            for rate in (0.05, 0.1, 0.15)
        ]

    def test_runner_batched_matches_interpreter(self):
        ref = Runner().run(self._scenarios("interpreter"))
        got = Runner().run(self._scenarios("batched"))
        for a, b in zip(ref, got):
            ma = {k: v for k, v in a.metrics.items()}
            mb = {k: v for k, v in b.metrics.items()}
            assert ma == mb
        # First evaluation of each batched point is fresh, not cached.
        assert [r.cached for r in got] == [False, False, False]

    def test_batched_results_are_cached_on_reuse(self):
        runner = Runner()
        first = runner.run(self._scenarios("batched"))
        second = runner.run(self._scenarios("batched"))
        assert [r.cached for r in first] == [False, False, False]
        assert [r.cached for r in second] == [True, True, True]

    def test_engine_validates(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimSpec(engine="warp")

    def test_engine_round_trips_and_hashes(self):
        from repro.experiments import scenario_from_json, scenario_hash

        base = self._scenarios("interpreter")[0]
        batched = self._scenarios("batched")[0]
        assert scenario_hash(base) != scenario_hash(batched)
        rt = scenario_from_json(batched.to_json())
        assert rt.sim.engine == "batched"
        assert scenario_hash(rt) == scenario_hash(batched)

    def test_closed_loop_falls_back_to_interpreter(self):
        """Batched requests on interpreter-only features still evaluate
        (via the interpreter) and report closed-loop percentiles."""
        topo = TopologySpec.plain(Technology.ELECTRONIC, width=4, height=4)
        sim = SimSpec(
            cycles=200,
            drain_budget=5_000,
            closed_loop_window=2,
            engine="batched",
        )
        scn = Scenario(
            kind="simulation",
            topology=topo,
            traffic=TrafficSpec.make("uniform", injection_rate=0.05, seed=9),
            sim=sim,
        )
        (res,) = Runner().run([scn])
        assert res.metrics["replies_delivered"] > 0
        assert res.metrics["request_p50_latency"] > 0
        assert res.metrics["reply_p99_latency"] >= res.metrics["reply_p50_latency"]
