"""Job records: a write-once submission plus the state its ledger folds to.

A job is one submitted request working through the scheduler's lifecycle
``queued -> running -> done | failed``. The :class:`JobStore` writes the
immutable half of a job — its id, design-point hashes, sweep hash and
the validated request — once, at submit, as ``jobs/<job_id>.json``
(atomic temp-file + rename via the cache's writer), and never rewrites
it. Everything that changes afterwards (state, point counters, error,
release, resume count) lives only in the job's run ledger
(:mod:`repro.obs.ledger`); a :class:`JobRecord` is the submission plus
that ledger folded through :meth:`~repro.obs.ledger.LedgerReplay.apply`.
A killed service therefore finds its queued and half-run jobs by
replaying their ledgers at the next boot; the points such a job already
completed live in the evaluation-cache checkpoint and are served as
cache hits on the re-run instead of being simulated again.

Job metrics themselves are *not* stored here — finished results land in
the versioned :class:`~repro.service.results.ResultStore` release the
record points at, and hot results additionally stay in scheduler memory.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.cache import _atomic_write_text
from repro.obs.ledger import LedgerReplay
from repro.obs.logs import fields, get_logger
from repro.obs.metrics import counter

__all__ = ["JOB_STATES", "JobRecord", "JobStore", "sweep_hash"]

_log = get_logger("service.jobs")
_SAVES = counter("jobstore.saves")

JOB_STATES = ("queued", "running", "done", "failed")

#: The immutable fields ``jobs/<job_id>.json`` holds.
_SUBMISSION_KEYS = ("job_id", "n_points", "spec_hashes", "sweep_hash", "request")
#: The job-status document's fields (plus the derived ``cache_hit_ratio``).
_STATUS_KEYS = (
    "job_id", "state", "n_points", "spec_hashes", "sweep_hash", "points_done",
    "cache_hits", "duration_s", "error", "release", "resumed",
)


def sweep_hash(spec_hashes: list[str]) -> str:
    """Content hash of a whole submission (order-sensitive).

    Two requests naming the same design points in the same order share
    it, which is what keys result-store releases and lets audit output
    show duplicate submissions for what they are.
    """
    digest = hashlib.sha256()
    for h in spec_hashes:
        digest.update(h.encode("ascii"))
    return digest.hexdigest()


@dataclass
class JobRecord(LedgerReplay):
    """One submission plus the state its ledger events fold to."""

    spec_hashes: list[str] = field(default_factory=list)
    sweep_hash: str = ""
    request: dict[str, Any] = field(default_factory=dict)
    """The validated submit payload, verbatim (resume re-parses it)."""

    def submission_json(self) -> dict[str, Any]:
        return {key: getattr(self, key) for key in _SUBMISSION_KEYS}

    @classmethod
    def from_submission(cls, data: dict[str, Any]) -> "JobRecord":
        return cls(**{key: data[key] for key in _SUBMISSION_KEYS})

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of completed points served from the cache."""
        return self.cache_hits / self.points_done if self.points_done else 0.0

    def status_json(self) -> dict[str, Any]:
        """The job-status document API responses carry (no request; the
        audit endpoint's detail view has it)."""
        doc = {key: getattr(self, key) for key in _STATUS_KEYS}
        doc["cache_hit_ratio"] = round(self.cache_hit_ratio, 6)
        return doc


@dataclass
class _Counter:
    value: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class JobStore:
    """Directory of write-once job submissions with monotonic ids.

    Ids are ``job-<NNNNNN>``, continuing from the highest id already on
    disk so restarts never reuse one. :meth:`create` writes each
    submission exactly once, atomically, through :meth:`save`.
    """

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        highest = 0
        for path in self.root.glob("job-*.json"):
            try:
                highest = max(highest, int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        self._counter = _Counter(highest)

    def _next_id(self) -> str:
        with self._counter.lock:
            self._counter.value += 1
            return f"job-{self._counter.value:06d}"

    def _path(self, job_id: str) -> pathlib.Path:
        if not job_id.startswith("job-") or "/" in job_id or "\\" in job_id:
            raise KeyError(job_id)
        return self.root / f"{job_id}.json"

    def create(
        self,
        *,
        spec_hashes: list[str],
        request: dict[str, Any],
    ) -> JobRecord:
        """Mint and persist the submission of a validated request."""
        record = JobRecord(
            job_id=self._next_id(),
            n_points=len(spec_hashes),
            spec_hashes=list(spec_hashes),
            sweep_hash=sweep_hash(spec_hashes),
            request=request,
        )
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically write ``record``'s submission (called once, by
        :meth:`create`)."""
        _atomic_write_text(
            self._path(record.job_id),
            json.dumps(record.submission_json(), indent=2, sort_keys=True) + "\n",
        )
        _SAVES.inc()
        _log.debug("job submission saved", extra=fields(job=record.job_id))

    def get(self, job_id: str) -> JobRecord | None:
        """The submission of ``job_id`` as a fresh (queued) record."""
        try:
            path = self._path(job_id)
        except KeyError:
            return None
        if not path.exists():
            return None
        return JobRecord.from_submission(json.loads(path.read_text()))

    def all(self) -> list[JobRecord]:
        """Every submission as a fresh record, oldest first."""
        return [
            JobRecord.from_submission(json.loads(path.read_text()))
            for path in sorted(self.root.glob("job-*.json"))
        ]
