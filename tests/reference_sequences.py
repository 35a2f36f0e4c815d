"""Set-based reference generators that the tests compare the package's against.

``reference_sequence`` keeps the family as a set of canonical edge tuples,
lists the absent follower pairs in Python for every element, and builds each
element through the validating ``build_graph``. It draws from the generator
in the same order as ``generate_sequence``, so for one config both must give
the same edges, adjacency and saturation flag. ``reference_random_graph``
draws ``random_connected_graph``'s extra edges one pair at a time.
``validate_sequence`` checks the five family properties every generated
family must have.
"""

from __future__ import annotations

import numpy as np

from groundspect.errors import InfeasibleConfigError
from groundspect.graphs import (
    build_graph,
    is_connected,
    leaders_nonadjacent,
    make_partition,
    min_follower_degree,
)
from groundspect.sequences import GraphSequence, SequenceConfig


def reference_sequence(cfg: SequenceConfig) -> GraphSequence:
    n_leaders = len(cfg.leader_degrees)
    if max(cfg.leader_degrees) > cfg.initial_followers:
        raise InfeasibleConfigError("leader degree exceeds follower count")
    rng = np.random.default_rng(cfg.rng_seed)
    leaders = list(range(n_leaders))
    followers = list(range(n_leaders, n_leaders + cfg.initial_followers))
    deg = [0] * len(followers)  # deg[k]: follower-follower degree of node n_leaders + k

    edges: set[tuple[int, int]] = set()  # each stored as (smaller, larger)
    for idx in range(1, len(followers)):
        anchor = int(rng.integers(idx))
        edges.add((followers[anchor], followers[idx]))
        deg[anchor] += 1
        deg[idx] += 1
    for leader, d in zip(leaders, cfg.leader_degrees):
        picks = rng.choice(len(followers), size=d, replace=False)
        edges.update((leader, followers[int(k)]) for k in picks)

    elements = [_element(leaders, followers, edges)]
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
            break
        elements.append(_element(leaders, followers, edges))
        prev_min = current

    return GraphSequence(elements=tuple(elements), config=cfg, saturated=saturated)


def _element(leaders, followers, edges):
    n = len(leaders) + len(followers)
    return build_graph(n, edges), make_partition(n, leaders)


def reference_random_graph(n, n_leaders, rng, extra_edge_prob=0.25):
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    for i in range(n - 1):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    leaders = rng.choice(n, size=n_leaders, replace=False)
    return build_graph(n, sorted(edges)), make_partition(n, leaders)


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
