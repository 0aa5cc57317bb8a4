"""Interconnection topologies and routing.

Distances feed the latency model (per-hop latency × hop count) and the
load balancer's neighbour sets.  Topologies are small enough that we
precompute all-pairs shortest-path hop counts with BFS at construction.

The super-root (node ``-1``) is reachable from every processor at one hop;
it models the host/front-end interface Rediflow used and is immune to
failure (§4.3.1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.packets import SUPER_ROOT_NODE
from repro.errors import TopologyError


def _edges_ring(n: int) -> List[Tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def _edges_complete(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _edges_star(n: int) -> List[Tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def _edges_mesh(n: int) -> List[Tuple[int, int]]:
    """Near-square 2-D mesh over n nodes (last row may be ragged)."""
    cols = max(1, int(math.isqrt(n)))
    edges = []
    for i in range(n):
        r, c = divmod(i, cols)
        if c + 1 < cols and i + 1 < n:
            edges.append((i, i + 1))
        if i + cols < n:
            edges.append((i, i + cols))
    return edges


def _edges_hypercube(n: int) -> List[Tuple[int, int]]:
    if n & (n - 1):
        raise TopologyError("hypercube requires a power-of-two node count")
    dims = n.bit_length() - 1
    edges = []
    for i in range(n):
        for d in range(dims):
            j = i ^ (1 << d)
            if i < j:
                edges.append((i, j))
    return edges


_BUILDERS = {
    "ring": _edges_ring,
    "complete": _edges_complete,
    "star": _edges_star,
    "mesh": _edges_mesh,
    "hypercube": _edges_hypercube,
}


class Topology:
    """Static processor interconnect with precomputed hop distances."""

    def __init__(self, kind: str, n: int):
        if n < 1:
            raise TopologyError("topology needs at least one node")
        builder = _BUILDERS.get(kind)
        if builder is None:
            raise TopologyError(f"unknown topology kind: {kind!r}")
        self.kind = kind
        self.n = n
        self._adj: Dict[int, List[int]] = {i: [] for i in range(n)}
        for a, b in builder(n):
            self._adj[a].append(b)
            self._adj[b].append(a)
        for neighbours in self._adj.values():
            neighbours.sort()
        self._dist = self._all_pairs_bfs()

    def _all_pairs_bfs(self) -> List[List[int]]:
        dist = [[-1] * self.n for _ in range(self.n)]
        for src in range(self.n):
            dist[src][src] = 0
            frontier = [src]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if dist[src][v] < 0:
                            dist[src][v] = d
                            nxt.append(v)
                frontier = nxt
        for src in range(self.n):
            if any(d < 0 for d in dist[src]):
                raise TopologyError(f"{self.kind} topology on {self.n} nodes is disconnected")
        return dist

    def neighbours(self, node: int) -> List[int]:
        """Directly connected processors of ``node``."""
        if node == SUPER_ROOT_NODE:
            return list(range(self.n))
        return list(self._adj[node])

    def hops(self, src: int, dst: int) -> int:
        """Hop count of the shortest path between two endpoints.

        The super-root is one hop from every processor.
        """
        if src == dst:
            return 0
        if src == SUPER_ROOT_NODE or dst == SUPER_ROOT_NODE:
            return 1
        return self._dist[src][dst]

    def hops_from(self, src: int) -> List[int]:
        """Hop counts from processor ``src`` to every processor, by id."""
        return self._dist[src]

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self._dist)

    def __repr__(self) -> str:
        return f"Topology({self.kind!r}, n={self.n}, diameter={self.diameter})"
