"""Trace containers and packetization (BookSim-style trace mode).

The paper converts MPICL traces of the NAS Parallel Benchmarks into
BookSim-compatible traces, with two packet sizes: "1 flit per packet and 32
flits per packet. All large packets from the original network trace were
split up into smaller packets".

A :class:`Trace` holds its injections as four int64 columns (time, source,
destination, size), ordered by (time, src, dst). Traces are built from
*messages* (src, dst, bytes) grouped into *phases* (e.g. one all-to-all
exchange); the scheduler serializes each source's packets at the injection
bandwidth (1 flit/cycle) and separates phases by a configurable compute
gap, mimicking the bulk-synchronous structure of the NPB kernels while
keeping the paper's "temporal information is ignored" simplification for
energy accounting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.typing import ArrayLike

from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "FLIT_BYTES",
    "MAX_PACKET_FLITS",
    "COLUMNS",
    "PacketRecord",
    "PacketView",
    "Message",
    "Trace",
    "packetize_flits",
    "schedule_phases",
]

#: Flit payload: 64-bit flits (paper Table II).
FLIT_BYTES = 8

#: The larger of the paper's two packet sizes.
MAX_PACKET_FLITS = 32


@dataclass(frozen=True)
class PacketRecord:
    """One packet injection: time (cycle), source, destination, size."""

    time: int
    src: int
    dst: int
    size_flits: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"injection time must be >= 0, got {self.time}")
        if self.src == self.dst:
            raise ValueError(f"packet to self at node {self.src}")
        if not 1 <= self.size_flits <= MAX_PACKET_FLITS:
            raise ValueError(
                f"packet size must be 1..{MAX_PACKET_FLITS} flits, got {self.size_flits}"
            )


@dataclass(frozen=True)
class Message:
    """One application-level message before packetization."""

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message to self at node {self.src}")
        if self.size_bytes < 1:
            raise ValueError(f"message must be >= 1 byte, got {self.size_bytes}")

    @property
    def size_flits(self) -> int:
        """Flits needed for the payload (64-bit flits)."""
        return -(-self.size_bytes // FLIT_BYTES)


def packetize_flits(n_flits: int) -> list[int]:
    """Split a flit count into the paper's two packet sizes.

    Full 32-flit packets first, remainder as 1-flit packets.

    >>> packetize_flits(70)
    [32, 32, 1, 1, 1, 1, 1, 1]
    """
    if n_flits < 1:
        raise ValueError(f"flit count must be >= 1, got {n_flits}")
    full, rest = divmod(n_flits, MAX_PACKET_FLITS)
    return [MAX_PACKET_FLITS] * full + [1] * rest


#: Column names of a trace, in :class:`PacketRecord` field order.
COLUMNS = ("time", "src", "dst", "size_flits")


def _validate_columns(n_nodes: int, cols: Sequence[np.ndarray]) -> None:
    """Vectorized twin of :class:`PacketRecord`'s checks plus the endpoint
    range; raises on the first offending row of the first failing check."""
    time, src, dst, size = cols

    def first(mask: np.ndarray) -> int | None:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else None

    if (i := first(time < 0)) is not None:
        raise ValueError(f"injection time must be >= 0, got {time[i]}")
    if (i := first(src == dst)) is not None:
        raise ValueError(f"packet to self at node {src[i]}")
    if (i := first((size < 1) | (size > MAX_PACKET_FLITS))) is not None:
        raise ValueError(
            f"packet size must be 1..{MAX_PACKET_FLITS} flits, got {size[i]}"
        )
    outside = (src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes)
    if (i := first(outside)) is not None:
        pkt = PacketRecord(*(int(c[i]) for c in cols))
        raise ValueError(f"packet endpoints outside 0..{n_nodes - 1}: {pkt}")


class PacketView(Sequence[PacketRecord]):
    """Read-only per-packet view of a :class:`Trace`'s columns.

    Records are built on access and never cached. The view compares equal
    to any sequence of the same records, so ``list_of_records ==
    trace.packets`` keeps working.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: Sequence[np.ndarray]) -> None:
        self._cols = tuple(cols)

    def __len__(self) -> int:
        return self._cols[0].shape[0]

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return list(PacketView([c[index] for c in self._cols]))
        return PacketRecord(*(int(c[index]) for c in self._cols))

    def __iter__(self) -> Iterator[PacketRecord]:
        return (
            PacketRecord(*row) for row in zip(*(c.tolist() for c in self._cols))
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PacketView):
            return all(map(np.array_equal, self._cols, other._cols))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PacketView({len(self)} packets)"


class Trace:
    """An injection-ordered packet trace for ``n_nodes`` endpoints.

    The only storage is four read-only int64 columns (:data:`COLUMNS`),
    stably sorted by ``(time, src, dst)``. Generators build traces with
    :meth:`from_columns`; ``Trace(n_nodes, packets, name)`` adapts a
    :class:`PacketRecord` list, converting it once. :attr:`packets` is a
    per-packet view for the consumers that want records.
    """

    def __init__(
        self,
        n_nodes: int,
        packets: Iterable[PacketRecord] = (),
        name: str = "trace",
    ) -> None:
        rows = [(p.time, p.src, p.dst, p.size_flits) for p in packets]
        table = np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS))
        self._store(n_nodes, table.T, name)

    @classmethod
    def from_columns(
        cls,
        n_nodes: int,
        time: ArrayLike,
        src: ArrayLike,
        dst: ArrayLike,
        size_flits: ArrayLike,
        *,
        name: str = "trace",
    ) -> "Trace":
        """Build a trace from per-packet columns in any row order.

        Rows are validated like :class:`PacketRecord` (time >= 0, no
        self-loops, endpoints in range, 1..32 flits) and stably sorted by
        ``(time, src, dst)``. The inputs are copied, never aliased.
        """
        trace = cls.__new__(cls)
        trace._store(n_nodes, (time, src, dst, size_flits), name)
        return trace

    @classmethod
    def from_sources(
        cls,
        n_nodes: int,
        parts: Sequence[tuple[int, ArrayLike, ArrayLike]],
        *,
        packet_flits: int,
        name: str,
    ) -> "Trace":
        """Stack per-source ``(source, times, dsts)`` draws into one trace
        of ``packet_flits``-flit packets (the open-loop generators' shape)."""
        times = [np.asarray(t, dtype=np.int64) for _, t, _ in parts]
        time = np.concatenate(times) if times else np.empty(0, np.int64)
        return cls.from_columns(
            n_nodes,
            time,
            np.repeat([s for s, _, _ in parts], [t.size for t in times]),
            np.concatenate([d for _, _, d in parts]) if parts else time,
            np.full(time.size, packet_flits),
            name=name,
        )

    def _store(self, n_nodes: int, cols: Sequence[ArrayLike], name: str) -> None:
        if n_nodes < 2:
            raise ValueError(f"trace needs >= 2 nodes, got {n_nodes}")
        arrays = [np.asarray(c, dtype=np.int64) for c in cols]
        if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
            raise ValueError("trace columns must be 1-D and of equal length")
        _validate_columns(n_nodes, arrays)
        time, src, dst, _ = arrays
        order = np.lexsort((dst, src, time))
        self.n_nodes = int(n_nodes)
        self.name = name
        self._cols = {key: a[order] for key, a in zip(COLUMNS, arrays)}
        for a in self._cols.values():
            a.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.name == other.name
            and all(np.array_equal(self._cols[k], other._cols[k]) for k in COLUMNS)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Trace(n_nodes={self.n_nodes}, n_packets={self.n_packets}, "
            f"name={self.name!r})"
        )

    @property
    def packets(self) -> PacketView:
        """Read-only per-packet records, in trace order."""
        return PacketView([self._cols[k] for k in COLUMNS])

    @property
    def n_packets(self) -> int:
        """Total packets in the trace."""
        return int(self._cols["time"].shape[0])

    @property
    def total_flits(self) -> int:
        """Total flits across all packets."""
        return int(self._cols["size_flits"].sum())

    @property
    def duration_cycles(self) -> int:
        """Last injection time + 1 (0 for an empty trace)."""
        time = self._cols["time"]
        return int(time[-1]) + 1 if time.size else 0

    def columns(self) -> dict[str, np.ndarray]:
        """The stored ``time``/``src``/``dst``/``size_flits`` int64 columns
        in packet order. The arrays are read-only and shared, not copied."""
        return dict(self._cols)

    def flit_count_matrix(self) -> TrafficMatrix:
        """Per-pair flit counts (the paper's Table V input view)."""
        n = self.n_nodes
        pair = self._cols["src"] * n + self._cols["dst"]
        m = np.bincount(pair, weights=self._cols["size_flits"], minlength=n * n)
        return TrafficMatrix(m.reshape(n, n), name=f"{self.name}-flits")

    def scaled(self, factor: float, *, name: str | None = None) -> "Trace":
        """Subsample packets to ~``factor`` of the trace, keeping order.

        Used to shrink full-fidelity traces to cycle-simulation size; the
        (src, dst) mix is preserved by deterministic stride sampling.
        """
        if not 0 < factor <= 1:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor == 1.0:
            picked = slice(None)
            name = name or self.name
        else:
            stride = 1.0 / factor
            count = int(self.n_packets * factor)
            picked = (np.arange(count) * stride).astype(np.int64)
            name = name or f"{self.name}-x{factor:g}"
        return Trace.from_columns(
            self.n_nodes, *(self._cols[k][picked] for k in COLUMNS), name=name
        )


def schedule_phases(
    n_nodes: int,
    phases: Sequence[Iterable[Message]],
    *,
    inter_phase_gap: int = 64,
    flit_interval: int = 1,
    name: str = "trace",
) -> Trace:
    """Build a :class:`Trace` from per-phase message lists.

    Within a phase every source injects its packets serially; the next
    phase starts after every source has finished injecting plus
    ``inter_phase_gap`` compute cycles.

    ``flit_interval`` paces each source at one flit every ``flit_interval``
    cycles. The paper's MPICL traces came from a machine whose network
    interleaves computation with communication, and it notes the traces
    "will not saturate the NoC simulator"; pacing reproduces that operating
    point (a bulk-synchronous burst at full rate would drive an all-to-all
    far past saturation — see EXPERIMENTS.md).
    """
    if inter_phase_gap < 0:
        raise ValueError(f"inter-phase gap must be >= 0, got {inter_phase_gap}")
    if flit_interval < 1:
        raise ValueError(f"flit interval must be >= 1, got {flit_interval}")
    time: list[int] = []
    src: list[int] = []
    dst: list[int] = []
    size: list[int] = []
    phase_start = 0
    for phase in phases:
        next_free = [phase_start] * n_nodes
        for msg in phase:
            sizes = packetize_flits(msg.size_flits)
            starts = list(
                accumulate(
                    [f * flit_interval for f in sizes], initial=next_free[msg.src]
                )
            )
            time.extend(starts[:-1])
            src.extend([msg.src] * len(sizes))
            dst.extend([msg.dst] * len(sizes))
            size.extend(sizes)
            next_free[msg.src] = starts[-1]
        phase_start = max(next_free) + inter_phase_gap
    return Trace.from_columns(n_nodes, time, src, dst, size, name=name)
