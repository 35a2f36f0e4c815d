"""Generation and validation of densifying leader/follower graph families.

A generated family keeps the leader set, the leader degrees, and the mutual
non-adjacency of leaders fixed while the follower subgraph gains edges (and
optionally nodes) until its minimum internal degree strictly increases from
one element to the next.

All randomness flows through numpy's PCG64 generator seeded from the config,
so identical configs produce bit-identical families on any platform.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfeasibleConfigError, as_int
from .graphs import (
    Graph,
    Partition,
    build_graph,
    is_connected,
    leaders_nonadjacent,
    make_partition,
    min_follower_degree,
)

log = logging.getLogger(__name__)

GROWTH_MODES = ("densify_edges", "add_nodes_and_edges")


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

    Each element costs O(F^2) to list the F followers' absent pairs, plus
    O(1) per added edge: the follower-follower degrees and the count at their
    minimum are updated at the two endpoints only.
    """
    n_leaders = len(cfg.leader_degrees)
    if max(cfg.leader_degrees) > cfg.initial_followers:
        raise InfeasibleConfigError(
            f"leader degree {max(cfg.leader_degrees)} exceeds follower count "
            f"{cfg.initial_followers}"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    leaders = list(range(n_leaders))
    followers = list(range(n_leaders, n_leaders + cfg.initial_followers))
    deg = [0] * len(followers)  # deg[k]: follower-follower degree of node n_leaders + k

    edges: set[tuple[int, int]] = set()  # each stored as (smaller, larger)
    # Random recursive spanning tree over the followers.
    for idx in range(1, len(followers)):
        anchor = int(rng.integers(idx))
        edges.add((followers[anchor], followers[idx]))
        deg[anchor] += 1
        deg[idx] += 1
    for leader, d in zip(leaders, cfg.leader_degrees):
        picks = rng.choice(len(followers), size=d, replace=False)
        edges.update((leader, followers[int(k)]) for k in picks)

    elements = [_materialize(leaders, followers, edges)]
    prev_min = min(deg)
    saturated = False

    for _ in range(1, cfg.steps):
        if cfg.growth == "add_nodes_and_edges":
            anchor = int(rng.integers(len(followers)))
            e = (followers[anchor], n_leaders + len(followers))
            followers.append(e[1])
            deg[anchor] += 1
            deg.append(1)
            edges.add(e)
        absent = [
            (a, b)
            for i, a in enumerate(followers)
            for b in followers[i + 1 :]
            if (a, b) not in edges
        ]
        current = min(deg)
        at_min = deg.count(current)
        while current <= prev_min:
            if not absent:
                saturated = True
                break
            k = int(rng.integers(len(absent)))
            absent[k], absent[-1] = absent[-1], absent[k]
            e = absent.pop()
            edges.add(e)
            for node in e:
                deg[node - n_leaders] += 1
                at_min -= deg[node - n_leaders] == current + 1
            if at_min == 0:
                current += 1
                at_min = deg.count(current)
        if saturated:
            log.debug("follower subgraph saturated after %d elements", len(elements))
            break
        elements.append(_materialize(leaders, followers, edges))
        prev_min = current

    return GraphSequence(elements=tuple(elements), config=cfg, saturated=saturated)


def validate_sequence(seq: GraphSequence) -> dict[str, int]:
    """Check the five family properties element by element.

    Returns each failed property's name mapped to its first failing element
    index; an empty dict means every property held on every element.
    """
    if not seq.elements:
        raise ValueError("empty sequence")
    failures: dict[str, int] = {}
    fail = failures.setdefault  # keeps each property's first failing index

    first_g, first_p = seq.elements[0]
    base_degrees = [first_g.degree(j) for j in first_p.leaders]
    prev_min = None
    for idx, (g, p) in enumerate(seq.elements):
        if not is_connected(g):
            fail("connected", idx)
        if p.leaders != first_p.leaders:
            fail("leader_set_fixed", idx)
        elif [g.degree(j) for j in p.leaders] != base_degrees:
            fail("leader_degrees_constant", idx)
        if not leaders_nonadjacent(g, p):
            fail("leaders_nonadjacent", idx)
        current = min_follower_degree(g, p)
        if prev_min is not None and current <= prev_min:
            fail("min_follower_degree_increasing", idx)
        prev_min = current

    return failures


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
    edges = {_canon(i, int(rng.integers(i))) for i in range(1, n)}
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    leaders = rng.choice(n, size=n_leaders, replace=False)
    g = build_graph(n, sorted(edges))
    return g, make_partition(n, leaders)


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
    followers = list(range(n_leaders, n_leaders + n_followers))
    edges = [
        (a, b) for i, a in enumerate(followers) for b in followers[i + 1 :]
    ]
    offset = 0
    for leader, d in enumerate(leader_degrees):
        if rng is None:
            picks = [(offset + t) % n_followers for t in range(d)]
            offset += d
        else:
            picks = [int(k) for k in rng.choice(n_followers, size=d, replace=False)]
        edges.extend(_canon(leader, followers[k]) for k in picks)
    g = build_graph(n_leaders + n_followers, edges)
    return g, make_partition(g.n, range(n_leaders))


def _canon(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _materialize(
    leaders: list[int], followers: list[int], edges: set[tuple[int, int]]
) -> tuple[Graph, Partition]:
    n = len(leaders) + len(followers)
    g = build_graph(n, edges)
    return g, make_partition(n, leaders)

