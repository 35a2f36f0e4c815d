"""Generation of densifying leader/follower graph families.

A generated family keeps the leader set, the leader degrees, and the mutual
non-adjacency of leaders fixed while the follower subgraph gains edges (and
optionally nodes) until its minimum internal degree strictly increases from
one element to the next. These five family properties (connectivity
included) are checked element by element by the tests' reference checker.

All randomness flows through numpy's PCG64 generator seeded from the config,
so identical configs produce bit-identical families on any platform.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfeasibleConfigError, as_int
from .graphs import Graph, Partition, _graph, make_partition

log = logging.getLogger(__name__)

GROWTH_MODES = ("densify_edges", "add_nodes_and_edges")
_DRAW_AHEAD = 128  # the most edge draws taken in one generator call


@dataclass(frozen=True)
class SequenceConfig:
    """Recipe for one graph family.

    steps is the total number of elements; growth="add_nodes_and_edges"
    inserts one new follower per element before densifying. The counts and
    the seed must be integers (numpy's included, stored as int); a bool or a
    fraction raises ValueError instead of being truncated.
    """

    leader_degrees: tuple[int, ...]
    initial_followers: int
    steps: int
    growth: str = "densify_edges"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        degrees = tuple(as_int(d, "leader degree") for d in self.leader_degrees)
        object.__setattr__(self, "leader_degrees", degrees)
        for name in ("initial_followers", "steps", "rng_seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not self.leader_degrees or any(d < 1 for d in self.leader_degrees):
            raise ValueError("leader_degrees must be a non-empty list of positive ints")
        if self.initial_followers < 1:
            raise ValueError("need at least one follower")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.growth not in GROWTH_MODES:
            raise ValueError(f"growth must be one of {GROWTH_MODES}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GraphSequence:
    """Ordered (Graph, Partition) elements sharing one leader set.

    saturated is set when the follower subgraph completed before the
    requested number of elements; the sequence is then shorter than
    config.steps.
    """

    elements: tuple[tuple[Graph, Partition], ...]
    config: SequenceConfig
    saturated: bool = False

    def __len__(self) -> int:
        return len(self.elements)


def generate_sequence(cfg: SequenceConfig) -> GraphSequence:
    """Generate a family satisfying all five densification properties.

    Element 0 places the leaders on nodes 0..L-1, builds a random spanning
    tree over the followers, and attaches each leader to exactly its
    configured number of followers (sampled uniformly without replacement).
    Every later element adds uniformly chosen absent follower-follower edges
    until the minimum follower-follower degree strictly exceeds the previous
    element's; leader adjacency never changes after element 0.

    One boolean adjacency, sized for the last element, carries the family;
    each element is a read-only copy of its leading block. An element costs a
    scan of the follower block for its absent pairs, one generator call for its
    edge draws, and O(1) Python work per added edge: the follower-follower
    degrees and the count at their minimum change at the two endpoints only.
    """
    n_leaders, f = len(cfg.leader_degrees), cfg.initial_followers
    if max(cfg.leader_degrees) > f:
        raise InfeasibleConfigError(
            f"leader degree {max(cfg.leader_degrees)} exceeds follower count {f}"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    grow = cfg.growth == "add_nodes_and_edges"
    n = n_leaders + f
    adj = np.zeros((n + (cfg.steps - 1 if grow else 0),) * 2, dtype=bool)
    ff = adj[n_leaders:, n_leaders:]  # the follower block, a view
    tree = np.arange(1, f)  # a random recursive spanning tree: follower k joins one of 0..k-1
    anchors = rng.integers(tree)
    ff[anchors, tree] = ff[tree, anchors] = True
    deg = ff[:f, :f].sum(axis=1).tolist()  # deg[k]: follower-follower degree of node n_leaders + k
    for leader, d in enumerate(cfg.leader_degrees):
        picks = n_leaders + rng.choice(f, size=d, replace=False)
        adj[leader, picks] = adj[picks, leader] = True

    partition = make_partition(n, range(n_leaders))
    elements, prev_min, saturated = [], -1, False  # so element 0 adds no edge
    for step in range(cfg.steps):
        if grow and step:
            anchor = int(rng.integers(f))
            ff[anchor, f] = ff[f, anchor] = True
            deg[anchor] += 1
            deg.append(1)
            f, n = f + 1, n + 1
            partition = make_partition(n, range(n_leaders))
        # keys a*f + b of the absent pairs a < b, in the lexicographic order the draws index
        absent = np.flatnonzero(np.triu(~ff[:f, :f], 1)).tolist()
        current = min(deg)
        at_min = deg.count(current)
        draws, top = [], len(absent)  # draw k of a chunk is made with len(absent) == top - k
        while current <= prev_min:
            if not absent:
                saturated = True
                break
            if top - len(absent) == len(draws):  # draw ahead, the highs known in advance
                top, state = len(absent), rng.bit_generator.state
                draws = rng.integers(np.arange(top, max(top - _DRAW_AHEAD, 0), -1)).tolist()
            k = draws[top - len(absent)]
            absent[k], absent[-1] = absent[-1], absent[k]
            a, b = divmod(absent.pop(), f)
            ff[a, b] = ff[b, a] = True
            for node in (a, b):
                deg[node] += 1
                at_min -= deg[node] == current + 1
            if at_min == 0:
                current += 1
                at_min = deg.count(current)
        if top - len(absent) < len(draws):  # rewind and redraw the used ones: as if one per edge
            rng.bit_generator.state = state
            rng.integers(np.arange(top, len(absent), -1))
        if saturated:
            log.debug("follower subgraph saturated after %d elements", len(elements))
            break
        elements.append((_graph(adj[:n, :n].copy()), partition))
        prev_min = current

    return GraphSequence(elements=tuple(elements), config=cfg, saturated=saturated)


def random_connected_graph(
    n: int,
    n_leaders: int,
    rng: np.random.Generator,
    extra_edge_prob: float = 0.25,
) -> tuple[Graph, Partition]:
    """Random connected graph with a random leader set of the given size.

    A random recursive spanning tree guarantees connectivity; every absent
    pair is then added independently with extra_edge_prob.
    """
    if not (1 <= n_leaders <= n - 1):
        raise ValueError("need 1 <= n_leaders <= n-1")
    upper = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        upper[rng.integers(i), i] = True
    # one draw per absent pair, in row-major order
    absent = np.flatnonzero(np.triu(~upper, 1))
    upper.flat[absent[rng.random(absent.size) < extra_edge_prob]] = True
    leaders = rng.choice(n, size=n_leaders, replace=False)
    return _graph(upper | upper.T), make_partition(n, leaders)


def random_ensemble(
    count: int,
    seed: int,
    n_range: tuple[int, int] = (3, 40),
) -> list[tuple[Graph, Partition]]:
    """Seeded ensemble of random connected graphs with random leader splits."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        n_leaders = int(rng.integers(1, n))
        prob = float(rng.uniform(0.05, 0.8))
        out.append(random_connected_graph(n, n_leaders, rng, extra_edge_prob=prob))
    return out


def dense_follower_instance(
    n_followers: int,
    leader_degrees: tuple[int, ...],
    rng: np.random.Generator | None = None,
) -> tuple[Graph, Partition]:
    """Complete follower subgraph with low-degree leaders attached to it.

    The canonical kind of instance the separation certificate targets.
    Leaders attach to disjoint consecutive follower blocks (wrapping when
    degrees exceed the follower count) when rng is None, otherwise to a
    uniform random sample each.
    """
    n_leaders = len(leader_degrees)
    if max(leader_degrees) > n_followers:
        raise InfeasibleConfigError("leader degree exceeds follower count")
    n = n_leaders + n_followers
    adj = np.zeros((n, n), dtype=bool)
    adj[n_leaders:, n_leaders:] = ~np.eye(n_followers, dtype=bool)
    offset = 0
    for leader, d in enumerate(leader_degrees):
        if rng is None:
            picks = n_leaders + (offset + np.arange(d)) % n_followers
            offset += d
        else:
            picks = n_leaders + rng.choice(n_followers, size=d, replace=False)
        adj[leader, picks] = adj[picks, leader] = True
    return _graph(adj), make_partition(n, range(n_leaders))

