"""Oblivious shortest-path routing (X-Y dimension order + express links).

The paper routes with "an oblivious shortest-path routing method ... to
match the routing technique used in the BookSim 2.0 simulator for custom
networks". For meshes with *horizontal* express links this means:

* the X dimension is traversed first, the Y dimension second (dimension
  order), and
* the X traversal takes the true hop-count-shortest route through the row's
  link graph — including *detours*: with Hops=15 a packet from column 2 to
  column 14 walks west to column 0, rides the full-row express, and steps
  back west from column 15 (4 hops instead of 12). This is exactly why the
  paper calls the Hops=15 network "effectively a 2D torus".

Each grid line's next hops come from a BFS over its 1-D link graph with
deterministic tie-breaking that prefers monotone progress toward the
destination, so ties resolve to plain X-Y behaviour. The next-hop function
depends only on (current position, destination position), making routing
memoryless — the cycle simulator's per-hop lookups and the analytical path
enumeration provably agree.

:class:`RoutingTable` walks every (src, dst) pair at once through those
tables and keeps the routes as arrays (CSR paths, hop matrix, next-link
lookup table); every all-pairs consumer reads the arrays directly.

Deadlock note: detour routes create torus-like cyclic channel dependencies
in a wormhole network; the simulator breaks them with dateline VC classes
(see :mod:`repro.simulation.simulator`).
"""


from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache

import numpy as np

from repro.topology.graph import Link, LinkKind, Topology

__all__ = ["route_path", "RoutingTable"]

#: One grid line's link graph: per position, its sorted
#: ``(next_pos, is_express)`` neighbours. Hashable, so equal lines share
#: one next-hop table.
LineGraph = tuple[tuple[tuple[int, bool], ...], ...]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _line_graphs(topo: Topology) -> tuple[list[LineGraph], list[LineGraph]]:
    """Link graphs of every row (column positions) and column (row positions).

    Lines are handled individually so heterogeneous express placements
    (different rows owning different express links) route correctly.
    """
    rows: list[list[list[tuple[int, bool]]]] = [
        [[] for _ in range(topo.width)] for _ in range(topo.height)
    ]
    cols: list[list[list[tuple[int, bool]]]] = [
        [[] for _ in range(topo.height)] for _ in range(topo.width)
    ]
    for link in topo.links:
        sx, sy = topo.coords(link.src)
        dx, dy = topo.coords(link.dst)
        express = link.kind is LinkKind.EXPRESS
        if sy == dy:
            rows[sy][sx].append((dx, express))
        elif sx == dx:
            cols[sx][sy].append((dy, express))

    def freeze(lines: list[list[list[tuple[int, bool]]]]) -> list[LineGraph]:
        return [tuple(tuple(sorted(adj)) for adj in line) for line in lines]

    return freeze(rows), freeze(cols)


@lru_cache(maxsize=256)
def _line_next_hop_table(adj: LineGraph) -> np.ndarray:
    """``next_pos[cur, dst]`` for one grid line (-1 when cur == dst).

    BFS distances from every destination; among shortest-path neighbours
    the tie-break prefers (1) a regular step toward the destination,
    (2) an express toward the destination, (3) any other shortest option in
    ascending position order — so plain-mesh behaviour falls out wherever a
    detour does not strictly win.

    Memoized on the line's adjacency content: a uniform grid has only a
    couple of distinct line graphs. The returned table is read-only.
    """
    width = len(adj)
    table = np.full((width, width), -1, dtype=np.int64)
    for dst in range(width):
        # dist[c]: hops from position c to dst.
        dist = [-1] * width
        dist[dst] = 0
        queue = deque([dst])
        while queue:
            cur = queue.popleft()
            for nxt, _ in adj[cur]:
                # Line links are bidirectional, so reverse BFS can reuse adj.
                if dist[nxt] < 0:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        for cur in range(width):
            if cur == dst:
                continue
            candidates = [
                (nxt, express)
                for nxt, express in adj[cur]
                if dist[nxt] == dist[cur] - 1
            ]
            if not candidates:  # pragma: no cover - lines are connected
                raise RuntimeError(f"line graph disconnected at position {cur}")

            def rank(cand: tuple[int, bool]) -> tuple[int, int]:
                nxt, express = cand
                toward = (dst - cur) * (nxt - cur) > 0
                if toward and not express:
                    order = 0
                elif toward:
                    order = 1
                else:
                    order = 2
                return (order, nxt)

            table[cur, dst] = min(candidates, key=rank)[0]
    return _read_only(table)


def _link_lookup(topo: Topology) -> np.ndarray:
    """Dense ``[src, dst] -> link id`` table, -1 where no link exists.

    Of parallel links the first wins, as in :meth:`Topology.find_link`.
    """
    n = topo.n_nodes
    keys = np.fromiter(
        (link.src * n + link.dst for link in topo.links),
        dtype=np.int64,
        count=topo.n_links,
    )
    _, first = np.unique(keys, return_index=True)
    lut = np.full(n * n, -1, dtype=np.int64)
    lut[keys[first]] = first  # links[i].link_id == i
    return lut.reshape(n, n)


def _first_links(
    topo: Topology, row_next: np.ndarray, col_next: np.ndarray
) -> np.ndarray:
    """``[src, dst] -> first link id`` of every route, -1 on the diagonal.

    One hop for all N² pairs at once: by the source row's next-hop table
    while the columns differ (X phase), else by the column's (Y phase).
    """
    w, n = topo.width, topo.n_nodes
    src = np.arange(n)[:, None]
    dst = np.arange(n)[None, :]
    sx, sy, dx, dy = src % w, src // w, dst % w, dst // w
    nxt = np.where(
        sx != dx, sy * w + row_next[sy, sx, dx], col_next[sx, sy, dy] * w + sx
    )
    np.fill_diagonal(nxt, 0)  # no hop; masked below
    first = _link_lookup(topo)[src, nxt]
    np.fill_diagonal(first, -1)
    if (first < 0).sum() > n:  # pragma: no cover - adjacency invariant
        s, d = np.argwhere((first < 0) & (src != dst))[0]
        raise RuntimeError(f"no link {s} -> {nxt[s, d]}")
    return first


def _walk_all_pairs(
    topo: Topology, next_link_lut: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every route as CSR ``(offsets, link ids)``, pair ``p = src * N + dst``.

    Routing is memoryless, so all pairs advance together, one hop per
    step, each through the next-link table of the node it has reached.
    """
    n = topo.n_nodes
    lut = next_link_lut.reshape(-1)
    link_dst = np.fromiter(
        (link.dst for link in topo.links), dtype=np.int64, count=topo.n_links
    )
    active = np.flatnonzero(lut >= 0)  # every pair with src != dst
    dst = active % n
    links = lut[active]
    hops = np.zeros(n * n, dtype=np.int64)
    steps: list[tuple[np.ndarray, np.ndarray]] = []  # (walking pairs, links)
    while active.size:
        if len(steps) > 4 * (topo.width + topo.height):  # pragma: no cover
            raise RuntimeError("routing loop")
        steps.append((active, links))
        hops[active] += 1
        here = link_dst[links]
        walking = here != dst
        active, dst, here = active[walking], dst[walking], here[walking]
        links = lut[here * n + dst]
    offsets = np.zeros(n * n + 1, dtype=np.int64)
    np.cumsum(hops, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    for k, (walking_pairs, step_links) in enumerate(steps):
        flat[offsets[walking_pairs] + k] = step_links
    return offsets, flat


def route_path(topo: Topology, src: int, dst: int) -> list[Link]:
    """The deterministic X-then-Y shortest path from ``src`` to ``dst``.

    Convenience wrapper building a throwaway table; use
    :class:`RoutingTable` for repeated queries.
    """
    return RoutingTable(topo).path_list(src, dst)


class RoutingTable:
    """All-pairs deterministic router for one topology.

    Routes are read-only arrays over the N² pairs ``p = src * N + dst``:

    * ``next_link_lut`` (N x N): the first link of each route (the link a
      router forwards on), -1 on the diagonal. Built at construction.
    * ``path_offsets`` (N² + 1) and ``path_links``: every route in CSR
      form. Pair ``p`` owns ``path_links[path_offsets[p]:path_offsets[p + 1]]``,
      its link ids in path order; pairs follow each other in ``p`` order.
    * ``hop_matrix`` (N x N): links per route, 0 on the diagonal.

    The CSR routes and the hop matrix come from one vectorized walk of
    all pairs, run on first use: the simulators need only the next-link
    table.
    """

    def __init__(self, topo: Topology):
        self.topology = topo
        rows, cols = _line_graphs(topo)
        row_next = np.stack([_line_next_hop_table(g) for g in rows])
        col_next = np.stack([_line_next_hop_table(g) for g in cols])
        self.next_link_lut = _read_only(_first_links(topo, row_next, col_next))

    @cached_property
    def _routes(self) -> tuple[np.ndarray, np.ndarray]:
        offsets, links = _walk_all_pairs(self.topology, self.next_link_lut)
        return _read_only(offsets), _read_only(links)

    @property
    def path_offsets(self) -> np.ndarray:
        return self._routes[0]

    @property
    def path_links(self) -> np.ndarray:
        return self._routes[1]

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        n = self.topology.n_nodes
        return _read_only(np.diff(self.path_offsets).reshape(n, n))

    def _pair(self, src: int, dst: int) -> int:
        n = self.topology.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"node pair ({src}, {dst}) outside 0..{n - 1}")
        return src * n + dst

    def path(self, src: int, dst: int) -> tuple[Link, ...]:
        """Ordered links from ``src`` to ``dst``."""
        p = self._pair(src, dst)
        lo, hi = self.path_offsets[p : p + 2]
        links = self.topology.links
        return tuple(links[i] for i in self.path_links[lo:hi].tolist())

    def path_list(self, src: int, dst: int) -> list[Link]:
        """``path`` as a fresh list (the legacy ``route_path`` contract)."""
        return list(self.path(src, dst))

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links traversed from ``src`` to ``dst``."""
        self._pair(src, dst)
        return int(self.hop_matrix[src, dst])

    def next_link(self, current: int, dst: int) -> Link:
        """The link a router at ``current`` forwards toward ``dst``.

        Memoryless: equals the first link of :meth:`path` from ``current``.
        """
        self._pair(current, dst)
        if current == dst:
            raise ValueError("already at destination")
        return self.topology.links[int(self.next_link_lut[current, dst])]
