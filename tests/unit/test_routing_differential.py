"""Differential test: the routing table against a per-hop reference walker.

The reference below is the original scalar router: per-line BFS next-hop
tables with the monotone-first tie-break, walked one hop at a time via
``Topology.find_link``. Every (src, dst) pair of each topology must get
the same link ids from :meth:`RoutingTable.path`, the same
:meth:`RoutingTable.hop_count` and the same :meth:`RoutingTable.next_link`.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.topology import (
    ExpressSpec,
    RoutingTable,
    build_custom_express_mesh,
    build_express_mesh,
    build_mesh,
    build_torus,
)
from repro.topology.graph import LinkKind, Topology


def _reference_line_table(topo: Topology, dim: int, index: int) -> list[list[int]]:
    """``next[cur][dst]`` for one grid line: BFS plus the original tie-break."""
    size = topo.width if dim == 0 else topo.height
    adj: dict[int, list[tuple[int, bool]]] = {c: [] for c in range(size)}
    for link in topo.links:
        (sx, sy), (dx, dy) = topo.coords(link.src), topo.coords(link.dst)
        a, b, line = ((sx, dx, (sy, dy)) if dim == 0 else (sy, dy, (sx, dx)))
        if line == (index, index):
            adj[a].append((b, link.kind is LinkKind.EXPRESS))
    table = [[-1] * size for _ in range(size)]
    for dst in range(size):
        dist = [-1] * size
        dist[dst] = 0
        queue = deque([dst])
        while queue:
            cur = queue.popleft()
            for nxt, _ in adj[cur]:
                if dist[nxt] < 0:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        for cur in range(size):
            if cur == dst:
                continue
            cands = [(n, e) for n, e in adj[cur] if dist[n] == dist[cur] - 1]

            def rank(cand: tuple[int, bool]) -> tuple[int, int]:
                toward = (dst - cur) * (cand[0] - cur) > 0
                return (0 if toward and not cand[1] else 1 if toward else 2, cand[0])

            table[cur][dst] = min(cands, key=rank)[0]
    return table


def _reference_paths(topo: Topology) -> dict[tuple[int, int], list[int]]:
    """(src, dst) -> link ids, walked hop by hop (X phase, then Y)."""
    rows = [_reference_line_table(topo, 0, y) for y in range(topo.height)]
    cols = [_reference_line_table(topo, 1, x) for x in range(topo.width)]

    def next_node(cur: int, dst: int) -> int:
        (cx, cy), (dx, dy) = topo.coords(cur), topo.coords(dst)
        if cx != dx:
            return topo.node_id(rows[cy][cx][dx], cy)
        return topo.node_id(cx, cols[cx][cy][dy])

    paths = {}
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            node, links = src, []
            while node != dst:
                nxt = next_node(node, dst)
                links.append(topo.find_link(node, nxt).link_id)
                node = nxt
            paths[(src, dst)] = links
    return paths


TOPOLOGIES = {
    "mesh16": lambda: build_mesh(16, 16),
    "express16-h3": lambda: build_express_mesh(16, 16, hops=3),
    "express16-h5": lambda: build_express_mesh(16, 16, hops=5),
    "express16-h15": lambda: build_express_mesh(16, 16, hops=15),
    "torus8": lambda: build_torus(8, 8),
    "custom8-row2": lambda: build_custom_express_mesh(
        8, 8, express=[ExpressSpec(2, 0, 5)]
    ),
    "custom8-mixed": lambda: build_custom_express_mesh(
        8, 8,
        express=[ExpressSpec(2, 0, 5), ExpressSpec(5, 1, 7), ExpressSpec(5, 3, 6)],
    ),
    "mesh6x4": lambda: build_mesh(6, 4),
    "express6x4-h3": lambda: build_express_mesh(6, 4, hops=3),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_routes_match_reference_walker(name: str) -> None:
    topo = TOPOLOGIES[name]()
    rt = RoutingTable(topo)
    for (src, dst), ref in _reference_paths(topo).items():
        assert [link.link_id for link in rt.path(src, dst)] == ref, (src, dst)
        assert rt.hop_count(src, dst) == len(ref), (src, dst)
        if src != dst:
            assert rt.next_link(src, dst).link_id == ref[0], (src, dst)
