"""Live sweep progress: in-flight points, sliding-window throughput, ETA.

A :class:`ProgressTracker` consumes the same runner lifecycle events the
run ledger records (see :mod:`repro.obs.ledger`) and keeps, per job,
only what the ledger does not: the set of points in flight, a sliding
window of completion timestamps for point throughput, and the worker
count behind the utilization gauge. The completed/cached/failed counts
come from the job's ledger fold — the scheduler hands the tracker the
live :class:`~repro.service.jobs.JobRecord`; standalone use folds the
observed events into a private :class:`~repro.obs.ledger.LedgerReplay`.
``GET /api/v1/jobs/<id>/progress``, ``repro status --watch`` and
``repro obs top`` render the result. The ETA is rate-based:
``remaining / throughput`` over the window, ``None`` until at least one
point has landed.

The rendering helpers are plain string formatters (no terminal state):
:func:`render_bar` for progress bars, :func:`render_sparkline` for
block-character series, :func:`render_top` for the full ``repro obs
top`` screen and :func:`render_progress_line` for the one-line
``status --watch`` ticker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.obs.ledger import LedgerReplay
from repro.obs.metrics import gauge

__all__ = [
    "ProgressTracker",
    "render_bar",
    "render_sparkline",
    "render_progress_line",
    "render_top",
    "format_eta",
]

_IN_FLIGHT = gauge("progress.points_in_flight")
_ACTIVE_JOBS = gauge("progress.active_jobs")
_UTILIZATION = gauge("progress.worker_utilization")


@dataclass
class _JobProgress:
    counts: LedgerReplay
    """The job's ledger fold: the source of its point counts."""
    folds: bool
    """True when the tracker owns ``counts`` and folds events into it."""
    workers: int
    started_at: float
    in_flight: set[int] = field(default_factory=set)
    #: Completion timestamps inside the sliding throughput window.
    stamps: deque[float] = field(default_factory=lambda: deque(maxlen=4096))


class ProgressTracker:
    """Per-job live progress fed by runner lifecycle events.

    ``clock`` is injectable for deterministic tests; the default is
    :func:`time.monotonic`. All methods are thread-safe — events arrive
    from the sweep drive thread while HTTP threads snapshot.
    """

    def __init__(
        self,
        *,
        window_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.window_s = window_s
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobProgress] = {}

    # -- event intake --------------------------------------------------------

    def job_started(
        self,
        job_id: str,
        *,
        n_points: int,
        workers: int = 1,
        counts: LedgerReplay | None = None,
    ) -> None:
        """Start tracking ``job_id``; ``counts`` is the job's ledger fold,
        kept current by its owner (default: a private fold of the events
        :meth:`observe` sees)."""
        with self._lock:
            self._jobs[job_id] = _JobProgress(
                counts=(
                    counts if counts is not None
                    else LedgerReplay(job_id=job_id, n_points=n_points)
                ),
                folds=counts is None,
                workers=max(1, workers),
                started_at=self._clock(),
            )
            self._set_gauges()

    def observe(self, job_id: str, event: str, fields: dict[str, Any]) -> None:
        """Fold one runner lifecycle event (``point.*``) into the state."""
        point = int(fields.get("point", -1))
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            if job.folds:
                job.counts.apply({"event": event, **fields})
            if event == "point.dispatched":
                job.in_flight.add(point)
            elif event in ("point.completed", "point.cached", "point.failed"):
                job.in_flight.discard(point)
                if event != "point.failed":
                    job.stamps.append(self._clock())
            self._set_gauges()

    def job_finished(self, job_id: str) -> None:
        with self._lock:
            self._jobs.pop(job_id, None)
            self._set_gauges()

    def _set_gauges(self) -> None:
        # Caller holds the lock.
        _ACTIVE_JOBS.set(len(self._jobs))
        _IN_FLIGHT.set(sum(len(j.in_flight) for j in self._jobs.values()))
        workers = sum(j.workers for j in self._jobs.values())
        busy = sum(
            min(len(j.in_flight), j.workers) for j in self._jobs.values()
        )
        _UTILIZATION.set(busy / workers if workers else 0.0)

    # -- queries -------------------------------------------------------------

    def active_jobs(self) -> list[str]:
        with self._lock:
            return sorted(self._jobs)

    def snapshot(self, job_id: str) -> dict[str, Any] | None:
        """Live progress document for one active job (None if inactive)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            now = self._clock()
            cutoff = now - self.window_s
            recent = sum(1 for t in job.stamps if t >= cutoff)
            elapsed = max(now - job.started_at, 1e-9)
            span = min(self.window_s, elapsed)
            throughput = recent / span if recent else 0.0
            c = job.counts
            remaining = max(c.n_points - c.points_done - c.failed_points, 0)
            eta = remaining / throughput if throughput > 0 else None
            return {
                "completed": c.points_done - c.cache_hits,
                "cached": c.cache_hits,
                "failed": c.failed_points,
                "in_flight": len(job.in_flight),
                "throughput_pps": round(throughput, 6),
                "eta_s": None if eta is None else round(eta, 3),
                "elapsed_s": round(elapsed, 3),
                "workers": job.workers,
                "utilization": round(
                    min(len(job.in_flight), job.workers) / job.workers, 6
                ),
            }


# -- rendering ---------------------------------------------------------------

_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def render_bar(done: int, total: int, *, width: int = 24) -> str:
    """A ``[#####.....]`` progress bar; full width when ``total`` is 0."""
    if total <= 0:
        return "[" + "#" * width + "]"
    filled = min(width, int(width * done / total))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def format_eta(seconds: float | None) -> str:
    """Compact human ETA: ``-`` (unknown), ``42s``, ``3m05s``, ``1h12m``."""
    if seconds is None:
        return "-"
    s = max(0, int(round(seconds)))
    if s < 60:
        return f"{s}s"
    if s < 3600:
        return f"{s // 60}m{s % 60:02d}s"
    return f"{s // 3600}h{(s % 3600) // 60:02d}m"


def render_sparkline(values: Sequence[float], *, width: int = 32) -> str:
    """Block-character sparkline of the last ``width`` values."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_BLOCKS[1] * len(vals)
    scale = (len(_SPARK_BLOCKS) - 2) / (hi - lo)
    return "".join(
        _SPARK_BLOCKS[1 + int((v - lo) * scale)] for v in vals
    )


def render_progress_line(doc: dict[str, Any], *, width: int = 24) -> str:
    """One-line ticker for ``repro status --watch``."""
    n = doc.get("n_points", 0)
    done = doc.get("points_done", 0)
    pct = 100.0 * done / n if n else 0.0
    thr = doc.get("throughput_pps")
    thr_txt = f" {thr:.2f} pt/s" if thr else ""
    eta = format_eta(doc.get("eta_s"))
    return (
        f"{doc.get('job_id', '?')} {doc.get('state', '?'):<8} "
        f"{render_bar(done, n, width=width)} {done}/{n} {pct:5.1f}%"
        f"{thr_txt}  eta {eta}"
    )


def render_top(
    jobs: Sequence[dict[str, Any]],
    *,
    sparkline: Sequence[float] = (),
    width: int = 20,
) -> str:
    """The ``repro obs top`` screen: one row per job, active first.

    ``jobs`` is a sequence of progress documents (the shape
    ``/api/v1/jobs/<id>/progress`` serves). ``sparkline`` is an optional
    recent series (e.g. ``scheduler.points_completed`` deltas) rendered
    in the footer.
    """
    from repro.util import format_table

    order = {"running": 0, "queued": 1, "done": 2, "failed": 3}
    ranked = sorted(
        jobs,
        key=lambda d: (
            order.get(d.get("state", ""), 9),
            d.get("job_id", ""),
        ),
    )
    rows = []
    for doc in ranked:
        n = doc.get("n_points", 0)
        done = doc.get("points_done", 0)
        pct = 100.0 * done / n if n else 0.0
        thr = doc.get("throughput_pps")
        rows.append(
            [
                doc.get("job_id", "?"),
                doc.get("state", "?"),
                render_bar(done, n, width=width),
                f"{done}/{n}",
                f"{pct:5.1f}%",
                doc.get("in_flight", 0) or "-",
                "-" if not thr else f"{thr:.2f}",
                format_eta(doc.get("eta_s")),
            ]
        )
    out = format_table(
        ["job", "state", "progress", "points", "%", "in-flight", "pt/s", "eta"],
        rows,
        title="active jobs" if rows else "no jobs",
    )
    if len(sparkline) >= 2:
        out += f"\npoints/s {render_sparkline(sparkline)}"
    return out
