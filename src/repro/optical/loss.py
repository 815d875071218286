"""End-to-end optical path loss through an all-optical NoC.

"the losses incurred along the entire path from source to destination for
each flit was computed, and the laser power was estimated accordingly"
(paper, Section V). A path's loss is:

* modulator insertion loss + coupler losses at the source (Table I);
* per traversed router, the (in-port, out-port) fabric loss under the
  optimal port assignment;
* waveguide propagation loss over the physical route length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.optical.router import (
    OpticalRouterModel,
    optical_router_for,
    optimal_port_assignment,
)
from repro.tech.parameters import OpticalTechnologyParams, Technology, optical_params
from repro.topology.graph import Topology
from repro.topology.routing import RoutingTable

__all__ = ["PathLossModel", "Direction"]

#: Direction encoding shared with the router model: 0=N, 1=E, 2=S, 3=W, 4=Local.
Direction = int
_LOCAL: Direction = 4
#: The port a flit enters the next router by, per exit direction N/E/S/W.
_OPPOSITE = np.array([2, 3, 0, 1])


@lru_cache(maxsize=4)
def _assignment_for(technology: Technology) -> tuple[tuple[int, ...], float]:
    return optimal_port_assignment(optical_router_for(technology))


@dataclass
class PathLossModel:
    """Loss calculator for one all-optical network technology."""

    topology: Topology
    technology: Technology
    routing: RoutingTable

    def __post_init__(self) -> None:
        if not self.technology.is_optical:
            raise ValueError(f"{self.technology} is not optical")
        self.router: OpticalRouterModel = optical_router_for(self.technology)
        self.params: OpticalTechnologyParams = optical_params(self.technology)
        self.assignment, self.expected_router_loss_db = _assignment_for(
            self.technology
        )

    @cached_property
    def _link_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-link length and exit direction, and the (in, out) fabric
        loss of every direction pair (NaN for a u-turn)."""
        topo = self.topology
        links = topo.links
        coords = np.array([topo.coords(v) for v in range(topo.n_nodes)])
        src = coords[[link.src for link in links]]
        dst = coords[[link.dst for link in links]]
        (fx, fy), (tx, ty) = src.T, dst.T
        direction = np.select(
            [ty < fy, tx > fx, ty > fy, tx < fx], [0, 1, 2, 3], default=-1
        )  # N, E, S, W; -1 for a co-located pair
        fabric = np.full((5, 5), np.nan)
        for i in range(5):
            for o in range(5):
                if i != o:
                    fabric[i, o] = self.router.loss_db(
                        self.assignment[i], self.assignment[o]
                    )
        lengths = np.array([link.length_m for link in links], dtype=np.float64)
        return lengths, direction, fabric

    def _losses(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Source-to-destination loss of each ``(src[i], dst[i])`` route, dB.

        Walks all routes together, one hop index at a time, so every
        route's float sums run in path order, as a per-pair walk would:
        fixed losses, plus propagation over the summed route length, plus
        each traversed router's fabric loss (entered from the Local port
        at the source, left to the Local port at the destination).
        """
        lengths, direction, fabric = self._link_tables
        n = self.topology.n_nodes
        offsets, path = self.routing.path_offsets, self.routing.path_links
        first = offsets[src * n + dst]
        hops = offsets[src * n + dst + 1] - first
        steps = [np.flatnonzero(hops > k) for k in range(int(hops.max(initial=0)))]

        length = np.zeros(src.size)
        for k, on in enumerate(steps):
            length[on] += lengths[path[first[on] + k]]
        uniq, inv = np.unique(length, return_inverse=True)
        propagation = np.array([self.params.propagation_loss_db(x) for x in uniq])
        loss = self.params.total_fixed_loss_db() + propagation[inv]

        in_dir = np.full(src.size, _LOCAL)
        for k, on in enumerate(steps):
            out_dir = direction[path[first[on] + k]]
            if np.any(out_dir < 0):
                raise ValueError("route crosses a link between co-located nodes")
            loss[on] += fabric[in_dir[on], out_dir]
            in_dir[on] = _OPPOSITE[out_dir]  # entering the next router
        loss += fabric[in_dir, _LOCAL]
        if np.isnan(loss).any():
            raise ValueError("u-turns are not implemented (paper, Section V)")
        return loss

    def path_loss_db(self, src: int, dst: int) -> float:
        """Total source-to-destination optical loss, dB."""
        if src == dst:
            raise ValueError("no optical path to self")
        n = self.topology.n_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"node pair ({src}, {dst}) outside 0..{n - 1}")
        return float(self._losses(np.array([src]), np.array([dst]))[0])

    def average_loss_db(self, traffic_matrix) -> float:
        """Traffic-weighted mean path loss, dB."""
        m = traffic_matrix.matrix
        total = m.sum()
        if total == 0:
            raise ValueError("zero traffic")
        src, dst = np.nonzero(m > 0)  # row-major, like a per-pair loop
        if np.any(src == dst):
            raise ValueError("no optical path to self")
        # Sequential (not pairwise) accumulation keeps the float sum of a
        # running ``weighted += m[s, d] * loss`` loop bit for bit.
        terms = m[src, dst] * self._losses(src, dst)
        weighted = np.add.accumulate(terms)[-1] if terms.size else 0.0
        return float(weighted / total)

    def worst_case_loss_db(self) -> float:
        """Maximum loss over all pairs (sets the laser power budget)."""
        topo = self.topology
        # Corner-to-corner routes dominate; checking the four corners
        # against all nodes covers the maximum for X-Y routing.
        corners = [
            topo.node_id(0, 0),
            topo.node_id(topo.width - 1, 0),
            topo.node_id(0, topo.height - 1),
            topo.node_id(topo.width - 1, topo.height - 1),
        ]
        c = np.repeat(corners, topo.n_nodes)
        d = np.tile(np.arange(topo.n_nodes), len(corners))
        c, d = c[c != d], d[c != d]
        losses = np.concatenate([self._losses(c, d), self._losses(d, c)])
        return float(losses.max(initial=0.0))
