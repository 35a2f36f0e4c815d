"""Undirected graphs, leader/follower partitions, and the grounded Laplacian.

Node indices are 0-based and dense (0..n-1). All edge weights are 1; matrices
are dense float arrays with exact integer entries, so row-sum identities can
be asserted without tolerance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptyFollowerSetError,
    EmptyLeaderSetError,
    IndexOutOfRangeError,
    SelfLoopError,
)

NodeId = int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical (i < j) edge tuples."""

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    def degree(self, i: NodeId) -> int:
        return len(self.neighbors[i])

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        a = self.adjacency_matrix()
        return np.diag(a.sum(axis=1)) - a


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects self-loops, duplicate pairs (in either order), and endpoints
    outside [0, n).
    """
    if n < 2:
        raise ValueError(f"graph needs at least 2 nodes, got n={n}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n) or not (0 <= j < n):
            raise IndexOutOfRangeError(f"edge ({i},{j}) outside [0,{n})")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    return Graph(
        n=n,
        edges=tuple(sorted(seen)),
        neighbors=tuple(tuple(sorted(nb)) for nb in adj),
    )


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for j in g.neighbors[i]:
            if not seen[j]:
                seen[j] = True
                count += 1
                queue.append(j)
    return count == g.n


@dataclass(frozen=True)
class Partition:
    """Disjoint leader/follower split of the nodes 0..n-1.

    Both tuples are sorted; both sides are non-empty by construction.
    """

    n: int
    leaders: tuple[int, ...]
    followers: tuple[int, ...]

    def leader_indicator(self) -> np.ndarray:
        delta = np.zeros(self.n)
        delta[list(self.leaders)] = 1.0
        return delta


def make_partition(n: int, leaders: Iterable[NodeId]) -> Partition:
    """Build a validated Partition from a leader set."""
    leader_set = {int(i) for i in leaders}
    if not leader_set:
        raise EmptyLeaderSetError("at least one leader is required")
    for i in leader_set:
        if not (0 <= i < n):
            raise IndexOutOfRangeError(f"leader {i} outside [0,{n})")
    followers = tuple(i for i in range(n) if i not in leader_set)
    if not followers:
        raise EmptyFollowerSetError("at least one follower is required")
    return Partition(n=n, leaders=tuple(sorted(leader_set)), followers=followers)


@dataclass(frozen=True)
class GroundedLaplacian:
    """Graph Laplacian plus +1 on each leader's diagonal entry."""

    matrix: np.ndarray
    partition: Partition


def grounded_laplacian(g: Graph, p: Partition) -> GroundedLaplacian:
    """L(G) + diag(1 on leader rows, 0 on follower rows)."""
    if p.n != g.n:
        raise ValueError(f"partition is over {p.n} nodes, graph has {g.n}")
    m = g.laplacian_matrix()
    for i in p.leaders:
        m[i, i] += 1.0
    m.flags.writeable = False
    return GroundedLaplacian(matrix=m, partition=p)


def min_follower_degree(g: Graph, p: Partition) -> int:
    """Minimum follower-follower degree over the follower set."""
    leaders = set(p.leaders)
    nbs = g.neighbors
    return min(len(nbs[j]) - len(leaders.intersection(nbs[j])) for j in p.followers)


def leaders_nonadjacent(g: Graph, p: Partition) -> bool:
    """True iff no edge joins two leaders."""
    leaders = set(p.leaders)
    return all(leaders.isdisjoint(g.neighbors[j]) for j in p.leaders)
