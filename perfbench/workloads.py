"""The benchmark's four workloads, their timed units and output checks.

A workload turns ``--seed`` into inputs (scenarios for the library, a
submit document for the service) and runs them in *units*. A unit starts
from a cold ``EvaluationCache`` (for ``served-readme``, a fresh service
state directory) and evaluates its batch: ``Runner(jobs=1).run`` for the
library workloads, a submitted job polled at a fixed interval for the
service. It then resubmits the same batch, which must be served from the
warm cache. Units repeat until the run's time is spent.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from tracing import CLIENT, ROOT, Recorder

#: Injection window of the simulated points, per workload. The README
#: points use 200 cycles, which keeps a unit at a few seconds while the
#: 0.3 point still saturates and spends most of its batched time in
#: scalar replay. ``sweep-light`` uses 1000: at 200, draining the network
#: adds about half again to each point's engine cycles, and the engine's
#: share would bury the traffic layer the workload is there to load.
CYCLES = {"sweep-light": 1000, "sweep-saturated": 200, "served-readme": 200}
README_RATES = (0.1, 0.2, 0.3)
LIGHT_RATES = tuple(round(0.01 * i, 2) for i in range(1, 17))
#: Status-poll intervals of the service workload. Fixed, never backed
#: off: ``ServiceClient.wait`` sleeps up to 5 s between polls, which would
#: swamp the job times.
STATUS_POLL_S = 0.05
RESUBMIT_POLL_S = 0.002
RESUBMITS = 20
#: Library resubmissions are pure CPU bursts of well under 1 ms; spacing
#: them spreads their samples over more of the run than one burst (host
#: speed can shift on a ~1 s scale). Service resubmissions are already
#: paced by their own status polls.
RESUBMIT_GAP_S = 0.05

WORKLOADS = ("dse-grid", "sweep-light", "sweep-saturated", "served-readme")
#: Modules a workload needs before its first point; setup imports them.
MODULES = {
    "dse-grid": ("repro.experiments", "repro.analysis.network_clear"),
    "sweep-light": ("repro.experiments", "repro.simulation.batch"),
    "sweep-saturated": ("repro.experiments", "repro.simulation.batch"),
    "served-readme": ("repro.experiments", "repro.simulation.simulator",
                      "repro.service.server", "repro.service.client"),
}
DIGESTS = pathlib.Path(__file__).with_name("digests.json")
#: Which pinned digest table a workload is checked against: the two
#: README workloads simulate the same points on different engines.
DIGEST_KEY = {
    "dse-grid": "dse-grid",
    "sweep-light": "sweep-light",
    "sweep-saturated": "readme",
    "served-readme": "readme",
}


def digest(metrics: dict[str, Any]) -> str:
    """Content digest of one point's metrics (canonical JSON)."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def readme_request(seed: int) -> dict[str, Any]:
    """The README ``submit`` example at the benchmark's run length."""
    return {
        "version": 1,
        "family": "saturation-sweep",
        "params": {"rates": list(README_RATES),
                   "cycles": CYCLES["served-readme"], "seed": seed},
    }


def scenarios(workload: str, seed: int) -> list:
    """The scenarios one unit of ``workload`` evaluates."""
    from repro.experiments import scenario_family

    if workload == "dse-grid":
        # The whole grid (30 points) takes longer than a run. Every third
        # point still covers each base, express technology and hop count,
        # and its 10 distinct topologies are more than the 8 the program
        # keeps per process, so a repeated unit starts as cold as the first.
        return scenario_family("paper-grid", seed=seed)[::3]
    rates = LIGHT_RATES if workload == "sweep-light" else README_RATES
    return scenario_family(
        "saturation-sweep", rates=rates, cycles=CYCLES[workload], seed=seed,
        engine="interpreter" if workload == "served-readme" else "batched",
    )


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(reason)


@dataclass
class Measure:
    """What the units of one run measured."""

    points: int = 0
    busy_s: float = 0.0
    status_s: list[float] = field(default_factory=list)
    resubmit_s: list[float] = field(default_factory=list)
    region_s: float = 0.0
    #: label -> metrics digest of every point evaluated, per unit.
    digests: list[dict[str, str]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


class Service:
    """An in-process ``repro serve`` (``jobs=1``) on a fresh state directory."""

    def __init__(self, work: pathlib.Path) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import make_server

        self.state = tempfile.mkdtemp(prefix="state-", dir=work)
        self.server = make_server("127.0.0.1", 0, self.state, jobs=1)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.server_address[1]}")

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc: object) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        shutil.rmtree(self.state, ignore_errors=True)


def caller(m: Measure, rec: Recorder | None) -> Callable:
    """Issue one of the benchmark's HTTP requests: counted, and spanned
    when traced. A failed request raises ``ServiceError``."""

    def call(op: str, fn: Callable, *args: Any) -> Any:
        m.tally.attempt()
        t = time.perf_counter()
        with rec.span(f"service.http.{op}", CLIENT) if rec else nullcontext():
            out = fn(*args)
        if rec:
            rec.sample(f"service.http.{op}", time.perf_counter() - t)
        return out

    return call


def poll(query: Callable, finished: Callable, interval: float, lat: list | None):
    """Query at a fixed interval until ``finished(answer)``; returns the
    last answer and when it arrived. ``lat`` collects each answer's delay
    from when its poll was due."""
    due = time.perf_counter()
    while True:
        time.sleep(max(0.0, due - time.perf_counter()))
        answer = query()
        now = time.perf_counter()
        if lat is not None:
            lat.append(now - due)
        if finished(answer):
            return answer, now
        due = now + interval


def library_unit(batch: list, m: Measure, rec: Recorder | None) -> None:
    """One cold-cache ``Runner(jobs=1).run`` of the batch."""
    from repro.experiments import EvaluationCache, Runner

    region = (lambda: rec.span("bench.unit", ROOT)) if rec else nullcontext
    cache = EvaluationCache()
    with region():
        t0 = time.perf_counter()
        try:
            results = Runner(jobs=1, cache=cache).run(batch)
        except Exception as exc:  # a point raised: the whole unit failed
            m.tally.attempt(len(batch))
            m.tally.fail(f"sweep raised {type(exc).__name__}: {exc}", len(batch))
            return
        elapsed = time.perf_counter() - t0
    got = {r.scenario.label: digest(r.metrics) for r in results}
    resubmits = []
    for _ in range(RESUBMITS):
        # Each resubmission is its own traced region: the gaps are idle.
        with region():
            t = time.perf_counter()
            again = Runner(jobs=1, cache=cache).run(batch)
            resubmits.append(time.perf_counter() - t)
        m.tally.attempt(len(again))
        if not all(r.cached for r in again):
            m.tally.fail("resubmission missed the cache")
        if {r.scenario.label: digest(r.metrics) for r in again} != got:
            m.tally.fail("resubmission returned different metrics")
        time.sleep(RESUBMIT_GAP_S)
    if rec:
        rec.count("experiments.cache_hits", cache.hits)
        rec.count("experiments.cache_misses", cache.misses)
    m.tally.attempt(len(results))
    m.points += len(results)
    m.busy_s += elapsed
    m.resubmit_s += resubmits
    m.region_s += elapsed + sum(resubmits)
    m.digests.append(got)


def served_unit(
    seed: int, labels: list[str], m: Measure, work: pathlib.Path,
    rec: Recorder | None,
) -> None:
    """Boot a fresh in-process ``repro serve``, run the README job cold,
    then resubmit it ``RESUBMITS`` times against the warm cache."""
    from repro.service.client import ServiceError

    request = readme_request(seed)
    call = caller(m, rec)

    def settled(status: dict[str, Any]) -> bool:
        return status["state"] in ("done", "failed")

    with Service(work) as svc:
        client = svc.client
        try:
            client.health()
            with rec.span("bench.unit", ROOT) if rec else nullcontext():
                t0 = time.perf_counter()
                job = call("submit", client.submit, request)["job_id"]
                status, t_done = poll(lambda: call("status", client.status, job),
                                      settled, STATUS_POLL_S, m.status_s)
                result = call("result", client.result, job)["metrics"]
                npz = call("result_npz", client.result_npz, job)
                got = dict(zip(labels, map(digest, result)))
                m.tally.attempt(len(labels))
                if status["state"] != "done" or len(result) != len(labels):
                    m.tally.fail(f"cold job ended {status['state']}", len(labels))
                for _ in range(RESUBMITS):
                    t = time.perf_counter()
                    again = call("submit", client.submit, request)["job_id"]
                    st, _ = poll(lambda: call("status", client.status, again),
                                 settled, RESUBMIT_POLL_S, None)
                    res = call("result", client.result, again)
                    m.resubmit_s.append(time.perf_counter() - t)
                    m.tally.attempt(len(labels))
                    if st["state"] != "done" or res["cache_hits"] != len(labels):
                        m.tally.fail("resubmission missed the cache")
                    if list(map(digest, res["metrics"])) != list(got.values()):
                        m.tally.fail("resubmission returned different metrics")
                    if call("result_npz", client.result_npz, again) != npz:
                        m.tally.fail("resubmission released different npz bytes")
                t_end = time.perf_counter()
            if rec:
                cache = svc.server.scheduler.cache
                rec.count("experiments.cache_hits", cache.hits)
                rec.count("experiments.cache_misses", cache.misses)
                events = client.ledger(job)["events"]
                t = {ev["event"]: ev["t"] for ev in events}
                rec.count("service.queue_wait_s", t["job.running"] - t["job.submitted"])
        except ServiceError as exc:
            m.tally.fail(f"HTTP request failed: {exc}")
            return
    m.points += len(labels)
    m.busy_s += t_done - t0
    m.region_s += t_end - t0
    m.digests.append(got)


def run(
    workload: str, seed: int, seconds: float, work: pathlib.Path, *,
    rec: Recorder | None = None, units: int | None = None,
) -> tuple[Measure, int]:
    """Run units for ``seconds``, or exactly ``units`` of them; returns
    the measurements and the number of units run."""
    m = Measure()
    batch = scenarios(workload, seed)
    if workload == "served-readme":
        labels = [s.label for s in batch]
        return m, _repeat(lambda: served_unit(seed, labels, m, work, rec),
                          m, seconds, units)
    return m, _repeat(lambda: library_unit(batch, m, rec), m, seconds, units)


def _repeat(unit: Callable, m: Measure, seconds: float, units: int | None) -> int:
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        t = time.perf_counter()
        unit()
        n += 1
        now = time.perf_counter()
        if units is not None:
            if n >= units:
                return n
        # Start another unit only if it should end near the deadline.
        elif now + 0.5 * (now - t) > deadline or m.tally.failed:
            return n


# -- output checks --------------------------------------------------------------


def pinned(workload: str, seed: int) -> dict[str, str] | None:
    """Digests pinned for ``seed`` on the commit that defined the benchmark."""
    table = json.loads(DIGESTS.read_text())[DIGEST_KEY[workload]]
    return table.get(str(seed))


def reference(workload: str, seed: int) -> dict[str, str]:
    """Digests from an independent path, for seeds nothing is pinned for.

    The README points run on the other engine (interpreter for
    ``sweep-saturated``, batched for ``served-readme``), so the two
    workloads agree with each other on every seed. ``sweep-light``
    checks its highest-rate point on the interpreter; ``dse-grid``
    re-evaluates its first point directly, without runner or cache.
    """
    from repro.experiments import Runner, evaluate_scenario

    if workload == "dse-grid":
        s = scenarios(workload, seed)[0]
        return {s.label: digest(evaluate_scenario(s))}
    if workload == "sweep-light":
        s = scenarios(workload, seed)[-1]
        s = replace(s, sim=replace(s.sim, engine="interpreter"))
        return {s.label: digest(evaluate_scenario(s))}
    engine = "interpreter" if workload == "sweep-saturated" else "batched"
    batch = [replace(s, sim=replace(s.sim, engine=engine))
             for s in scenarios(workload, seed)]
    return {r.scenario.label: digest(r.metrics) for r in Runner(jobs=1).run(batch)}


def check_outputs(workload: str, seed: int, m: Measure) -> None:
    """Fail every point whose digest differs from the pinned one (seeds
    with pinned digests) or the reference one (other seeds), and every
    unit that disagrees with the run's first unit."""
    if not m.digests:
        if not m.tally.failed:
            m.tally.fail("no unit completed")
        return
    first = m.digests[0]
    for unit in m.digests[1:]:
        for label, d in unit.items():
            if first.get(label) != d:
                m.tally.fail(f"{label}: unit disagrees with the first unit")
    expected = pinned(workload, seed)
    if expected is None:
        expected = reference(workload, seed)
    for label, d in expected.items():
        if label in first and first[label] != d:
            m.tally.fail(f"{label}: digest {first[label]} != expected {d}")
