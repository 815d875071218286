"""Spans recorded from the benchmark's side of each layer boundary.

The benchmark never edits the program: :func:`install` swaps the public
entry points of each layer for thin wrappers that open a span around the
original call and restores them afterwards. Spans are kept in memory and
written out once, when the run ends.

Attribution is by wall clock. At every instant of a unit's region the
time goes to one open span: the one with the highest tier, and among
those the one that started last. On one thread that is the innermost
span, so a span's share is its duration minus what its children cover.
On several threads (the in-process service runs HTTP handlers, the
dispatcher and the sweep thread side by side) it is the most recently
entered layer, and program work (tier ``WORK``) outranks a client that
is only waiting for a reply (tier ``CLIENT``). Time no span covers is
``bench.unattributed``. By construction the shares of one region add up
to its wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ROOT, CLIENT, WORK = 0, 1, 2
UNATTRIBUTED = "bench.unattributed"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    tier: int
    thread: int
    start_ns: int
    end_ns: int


class Recorder:
    """In-memory span and counter sink shared by every thread of a run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phases: dict[str, int] = defaultdict(int)
        self.phase_counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, tier: int = WORK):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, tier, threading.get_ident(), start, end)
            )

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def add_profile(self, profile) -> None:
        """Fold one engine ``PhaseProfile`` into the per-engine totals."""
        with self._lock:
            for phase, ns in profile.phases.items():
                self.phases[f"{profile.engine}.{phase}"] += ns
            for name, n in profile.counts.items():
                self.phase_counts[f"{profile.engine}.{name}"] += n

    def regions(self) -> list[Span]:
        return [s for s in self.spans if s.tier == ROOT]

    def attribute(self) -> dict[str, int]:
        """Exclusive nanoseconds per span name over every root region."""
        out: dict[str, int] = defaultdict(int)
        work = [s for s in self.spans if s.tier != ROOT]
        for region in self.regions():
            for name, ns in attribute(work, region.start_ns, region.end_ns).items():
                out[name] += ns
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)


def attribute(spans: list[Span], lo: int, hi: int) -> dict[str, int]:
    """Split ``[lo, hi)`` among ``spans`` (see the module docstring)."""
    events = []
    for s in spans:
        a, b = max(s.start_ns, lo), min(s.end_ns, hi)
        if a < b:
            events.append((a, 1, s))
            events.append((b, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    out: dict[str, int] = defaultdict(int)
    heap: list[tuple[int, int, int, Span]] = []
    closed: set[int] = set()
    prev = lo
    for t, opening, s in events:
        while heap and heap[0][2] in closed:
            heapq.heappop(heap)
        out[heap[0][3].name if heap else UNATTRIBUTED] += t - prev
        prev = t
        if opening:
            heapq.heappush(heap, (-s.tier, -s.start_ns, s.id, s))
        else:
            closed.add(s.id)
    out[UNATTRIBUTED] += hi - prev
    return dict(out)


# -- wrappers around each layer's public calls --------------------------------


def _timed(rec: Recorder, name: str, after=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            rec.count(name + ".calls")
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    return deco


def _engine(rec: Recorder, fn):
    """Time an engine run and hand it a fresh ``PhaseProfile``."""
    from repro.obs.profile import PhaseProfile

    @functools.wraps(fn)
    def wrapper(self, traces, *args, **kwargs):
        prof = kwargs.get("profile")
        if prof is None:
            prof = kwargs["profile"] = PhaseProfile()
        with rec.span("simulation.run"):
            result = fn(self, traces, *args, **kwargs)
        rec.add_profile(prof)
        stats = result if isinstance(result, list) else [result]
        rec.count(f"experiments.points.{prof.engine}", len(stats))
        rec.count("simulation.cycles", sum(s.cycles for s in stats))
        rec.count(
            "simulation.flit_hops", sum(int(s.link_flit_counts.sum()) for s in stats)
        )
        return result

    return wrapper


def _runner_iter(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span("experiments.runner"):
            yield from fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder):
    """Wrap every layer's entry points; returns a function that undoes it.

    A target the program no longer has raises ``LookupError`` naming it,
    with nothing left wrapped: its layer metrics would otherwise read 0,
    which looks like a gain rather than a broken benchmark.
    """
    import importlib

    undo = []

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def wrap(module: str, path: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            restore()
            raise LookupError(
                f"tracing target {module}.{path} is missing ({exc}); "
                "update perfbench/tracing.py"
            ) from exc
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def packets(trace, args, kwargs):
        rec.count("traffic.packets", trace.n_packets)

    wrap("repro.experiments.spec", "TrafficSpec.trace",
         _timed(rec, "traffic.trace", packets))
    wrap("repro.experiments.spec", "TopologySpec.build",
         _timed(rec, "topology.materialize"))
    wrap("repro.analysis.network_clear", "evaluate_network",
         _timed(rec, "analysis.evaluate"))
    wrap("repro.analysis.network_clear", "average_latency_cycles",
         _timed(rec, "analysis.latency"))
    wrap("repro.analysis.network_clear", "network_power",
         _timed(rec, "analysis.power"))
    for module in ("repro.analysis.power", "repro.analysis.utilization"):
        wrap(module, "assign_flows", _timed(rec, "analysis.flows"))
    wrap("repro.simulation.simulator", "Simulator.run",
         functools.partial(_engine, rec))
    wrap("repro.simulation.batch", "BatchSimulator.run_batch",
         functools.partial(_engine, rec))
    wrap("repro.experiments.runner", "Runner.run_iter",
         functools.partial(_runner_iter, rec))
    wrap("repro.experiments.cache", "EvaluationCache.flush",
         _timed(rec, "experiments.cache_flush"))
    wrap("repro.service.scheduler", "ExperimentScheduler._execute",
         _timed(rec, "service.job"))
    wrap("repro.service.results", "ResultStore.put", _timed(rec, "service.release"))
    wrap("repro.service.jobs", "JobStore.save", _timed(rec, "service.job_save"))
    wrap("repro.obs.ledger", "RunLedger.append", _timed(rec, "obs.ledger_append"))
    return restore
