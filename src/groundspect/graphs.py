"""Undirected graphs, leader/follower partitions, and the grounded Laplacian.

Node indices are 0-based and dense (0..n-1). All edge weights are 1. A Graph
holds its edges once, as a read-only boolean adjacency matrix that every
graph-level quantity reads; the sorted tuple of canonical pairs that files are
written from is derived from it on first read. Matrices built from it are
dense float arrays with exact integer entries, so row-sum identities can be
asserted without tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptyFollowerSetError,
    EmptyLeaderSetError,
    IndexOutOfRangeError,
    SelfLoopError,
    as_int,
)

NodeId = int


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on the nodes 0..n-1.

    ``adjacency`` is the read-only n x n boolean matrix that every graph-level
    quantity reads; ``edges``, the sorted tuple of canonical (i < j) pairs, is
    built from it on first read and kept. Equality and hashing use (n, edges).
    """

    n: int
    adjacency: np.ndarray = field(repr=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return tuple(zip(i.tolist(), j.tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def degree(self, i: NodeId) -> int:
        return int(self.adjacency[i].sum())


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Rejects a non-integer n or endpoint (a bool, a fraction or a string
    raises ValueError, naming the edge for an endpoint), then self-loops, duplicate pairs (in either
    order), and endpoints outside [0, n). The first offending edge in input
    order is reported, checked for range, then self-loop, then duplicate.
    """
    return _pairs_graph(as_int(n, "n"), edges, first=0)


def _pairs_graph(n: int, edges: Iterable[Sequence[int]], first: int) -> Graph:
    """build_graph for an int n, with the nodes labelled first..first + n - 1 in the
    edges and in the errors (a graph file labels them from 1; its errors quote JSON)."""
    if n < 2:
        raise ValueError(f"graph needs at least 2 nodes, got n={n}")
    edges = list(edges)
    if not set(map(len, edges)) <= {2}:
        raise ValueError("every edge must be a pair of node indices")
    if not set(map(type, chain.from_iterable(edges))) <= {int}:  # else each by the as_int rule
        for edge in edges:
            for x in edge:
                as_int(x, f"endpoint of edge {json.dumps(edge) if first else tuple(edge)}")
    try:
        flat = np.fromiter(chain.from_iterable(edges), np.int64)
    except OverflowError:  # beyond int64 is out of range, as -1 is
        flat = np.array([x if abs(x) <= n else -1 for x in map(int, chain.from_iterable(edges))])
    flat -= first
    lo, hi = np.minimum(flat[0::2], flat[1::2]), np.maximum(flat[0::2], flat[1::2])
    _, first_seen = np.unique(lo * n + hi, return_index=True)
    repeated = np.ones(len(edges), dtype=bool)
    repeated[first_seen] = False
    offending = (lo < 0) | (hi >= n) | (lo == hi) | repeated
    if offending.any():
        i, j = map(int, edges[int(offending.argmax())])
        if not (first <= min(i, j) and max(i, j) < first + n):
            raise IndexOutOfRangeError(f"edge ({i},{j}) outside [{first},{first + n})")
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        raise DuplicateEdgeError(f"duplicate edge {(min(i, j), max(i, j))}")
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[lo, hi] = adjacency[hi, lo] = True
    return _graph(adjacency)


def _graph(adjacency: np.ndarray) -> Graph:
    """The Graph of a valid adjacency (symmetric, boolean, empty diagonal), made read-only."""
    adjacency.flags.writeable = False
    return Graph(n=len(adjacency), adjacency=adjacency)


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every node from node 0, a frontier at a time."""
    reached = frontier = np.arange(g.n) == 0
    while frontier.any():
        frontier = g.adjacency[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    return bool(reached.all())


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
    return _partition(as_int(n, "n"), leaders, first=0)


def _partition(n: int, leaders: Iterable[int], first: int) -> Partition:
    """make_partition for an int n, with the nodes labelled first..first + n - 1 in the
    leaders and in the errors."""
    leader_set = {as_int(i, "leader") - first for i in leaders}
    if not leader_set:
        raise EmptyLeaderSetError("at least one leader is required")
    for i in leader_set:
        if not (0 <= i < n):
            raise IndexOutOfRangeError(f"leader {i + first} outside [{first},{first + n})")
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
    a = g.adjacency
    m = np.diag(a.sum(axis=1) + p.leader_indicator()) - a
    m.flags.writeable = False
    return GroundedLaplacian(matrix=m, partition=p)


def min_follower_degree(g: Graph, p: Partition) -> int:
    """Minimum follower-follower degree over the follower set."""
    return int(g.adjacency[np.ix_(p.followers, p.followers)].sum(axis=1).min())


def leaders_nonadjacent(g: Graph, p: Partition) -> bool:
    """True iff no edge joins two leaders."""
    return not g.adjacency[np.ix_(p.leaders, p.leaders)].any()
