"""Graph construction, partitions, and grounded-Laplacian assembly."""

import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect import cli, io
from groundspect.errors import (
    DuplicateEdgeError,
    EmptyFollowerSetError,
    EmptyLeaderSetError,
    GroundspectError,
    IndexOutOfRangeError,
    SelfLoopError,
)

from jacobi import eig_symmetric


class TestBuildGraph:
    def test_p2(self):
        g = gs.build_graph(2, [(0, 1)])
        assert g.edges == ((0, 1),)
        assert g.adjacency.tolist() == [[False, True], [True, False]]

    def test_k3(self):
        g = gs.build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert all(g.degree(i) == 2 for i in range(3))

    def test_duplicate_rejected_either_order(self):
        with pytest.raises(DuplicateEdgeError):
            gs.build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdgeError):
            gs.build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            gs.build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            gs.build_graph(3, [(0, 3)])
        with pytest.raises(IndexOutOfRangeError):
            gs.build_graph(3, [(-1, 0)])

    def test_pairs_only(self):
        with pytest.raises(ValueError, match="pair of node indices"):
            gs.build_graph(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="pair of node indices"):
            gs.build_graph(3, [(0, 1), (2,)])
        with pytest.raises(ValueError, match="pair of node indices"):
            gs.build_graph(3, [(0, 1, 2), (1,)])  # lengths sum to two pairs

    def test_too_small(self):
        with pytest.raises(ValueError):
            gs.build_graph(1, [])

    @pytest.mark.parametrize(
        "edge, shown",
        [
            ((0, 1.5), "(0, 1.5)"),
            ((0, True), "(0, True)"),
            ((0, "1"), "(0, '1')"),
            ((2.0, 0), "(2.0, 0)"),
        ],
        ids=["fraction", "bool", "string", "integral-float"],
    )
    def test_non_integer_endpoint_names_the_edge(self, edge, shown):
        # refused, as errors.as_int refuses it, before any truncation to an int
        message = re.escape(f"endpoint of edge {shown} must be an integer")
        with pytest.raises(ValueError, match=message):
            gs.build_graph(3, [(1, 2), edge])

    def test_numpy_integer_endpoints_accepted(self):
        g = gs.build_graph(3, np.array([[0, 1], [2, 1]]))
        assert g.edges == ((0, 1), (1, 2)) and all(type(x) is int for e in g.edges for x in e)

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=repr)
    @pytest.mark.parametrize(
        "make",
        [lambda n: gs.build_graph(n, [(0, 1)]), lambda n: gs.make_partition(n, [0])],
        ids=["build_graph", "make_partition"],
    )
    def test_non_integer_node_count_rejected(self, make, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            make(n)


class TestConnectivity:
    def test_p2_connected(self):
        assert gs.is_connected(gs.build_graph(2, [(0, 1)]))

    def test_two_components(self):
        assert not gs.is_connected(gs.build_graph(4, [(0, 1), (2, 3)]))

    def test_k3_connected(self):
        assert gs.is_connected(gs.build_graph(3, [(0, 1), (1, 2), (0, 2)]))


class TestLazyEdges:
    """A Graph builds its edge tuple only when something reads it."""

    def test_certify_identify_and_cli_leave_edges_unbuilt(self, tmp_path, monkeypatch):
        cfg = gs.SequenceConfig((2, 2), 10, 3, "densify_edges", 4)
        g, p = gs.generate_sequence(cfg).elements[-1]
        report = gs.check_identifiability(g, p)
        u = cli._generated_inputs(p, 2, 0)
        gs.run_pipeline(report.spectral, u, cli._random_x0(g, u, 0))
        assert "edges" not in vars(g)

        io.save_graph(tmp_path / "g.json", g, p)  # writing the file reads g.edges
        loaded, load_graph = [], io.load_graph

        def recording(path):
            loaded.append(load_graph(path))
            return loaded[-1]

        monkeypatch.setattr(io, "load_graph", recording)
        cli.main(["identify", str(tmp_path / "g.json"), "-o", str(tmp_path / "out")])
        ((h, q),) = loaded
        assert "edges" not in vars(h) and h is not g and q == p

        for graph in (g, h):
            twin = gs.build_graph(graph.n, graph.edges)
            assert graph == twin and hash(graph) == hash(twin)
            assert {graph: 1}[twin] == 1
            assert type(graph.edges) is tuple
            assert all(type(e) is tuple and len(e) == 2 for e in graph.edges)
            assert all(type(x) is int for e in graph.edges for x in e)
        assert g == h and "edges" in vars(g)

    def test_equality_reads_n_and_edges_only(self):
        a = gs.build_graph(3, [(0, 1), (1, 2)])
        assert a == gs.build_graph(3, [(2, 1), (1, 0)])
        assert a != gs.build_graph(3, [(0, 1), (0, 2)])
        assert a != gs.build_graph(4, [(0, 1), (1, 2)])
        assert a != (3, a.edges)


class TestPartition:
    def test_all_leaders_rejected(self):
        with pytest.raises(EmptyFollowerSetError):
            gs.make_partition(3, [0, 1, 2])

    def test_no_leaders_rejected(self):
        with pytest.raises(EmptyLeaderSetError):
            gs.make_partition(3, [])

    def test_leader_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            gs.make_partition(3, [5])

    def test_sorted_and_disjoint(self):
        p = gs.make_partition(5, [3, 1])
        assert p.leaders == (1, 3)
        assert p.followers == (0, 2, 4)

    @pytest.mark.parametrize("label", [0.7, True, "1", np.bool_(True)], ids=repr)
    def test_non_integer_leader_rejected(self, label):
        with pytest.raises(ValueError, match="leader must be an integer"):
            gs.make_partition(3, [label])

    def test_numpy_integer_leader_stored_as_int(self):
        p = gs.make_partition(3, [np.int64(2)])
        assert p.leaders == (2,) and type(p.leaders[0]) is int


class TestGroundedLaplacian:
    def test_p2_single_leader(self, p2):
        L = gs.grounded_laplacian(*p2)
        assert L.matrix.tolist() == [[2.0, -1.0], [-1.0, 1.0]]

    def test_k3_single_leader(self, k3):
        L = gs.grounded_laplacian(*k3)
        assert L.matrix.tolist() == [
            [3.0, -1.0, -1.0],
            [-1.0, 2.0, -1.0],
            [-1.0, -1.0, 2.0],
        ]

    def test_row_sums_exact(self, ensemble):
        # 1 on leader rows, 0 on follower rows, exactly (integer arithmetic).
        for g, p in ensemble[:40]:
            L = gs.grounded_laplacian(g, p)
            sums = L.matrix @ np.ones(g.n)
            expect = p.leader_indicator()
            assert (sums == expect).all()

    def test_difference_from_laplacian_is_leader_diag(self, ensemble):
        for g, p in ensemble[:20]:
            a = g.adjacency.astype(float)
            diff = gs.grounded_laplacian(g, p).matrix - (np.diag(a.sum(axis=1)) - a)
            assert np.count_nonzero(diff - np.diag(np.diag(diff))) == 0
            assert np.trace(diff) == len(p.leaders)

    def test_positive_definite_on_ensemble(self, ensemble):
        for g, p in ensemble[:40]:
            w, _ = eig_symmetric(gs.grounded_laplacian(g, p).matrix)
            assert w[0] > 0.0


class TestDegrees:
    def test_p2_min_follower_degree(self, p2):
        assert gs.min_follower_degree(*p2) == 0


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    return n, edges


@settings(max_examples=80)
@given(edge_lists())
def test_neighbor_symmetry(case):
    n, edges = case
    g = gs.build_graph(n, edges)
    for i in range(n):
        for j in np.flatnonzero(g.adjacency[i]):
            assert g.adjacency[j, i]
        assert g.degree(i) == np.count_nonzero(g.adjacency[i])
    assert len(g.edges) == len(edges)


@settings(max_examples=50)
@given(edge_lists())
def test_adjacency_matches_edges(case):
    n, edges = case
    g = gs.build_graph(n, edges)
    a = g.adjacency
    assert (a == a.T).all()
    assert a.sum() == 2 * len(edges)
    assert np.trace(a) == 0


def reference_edges(n, edges):
    """The per-edge validation loop that build_graph's whole-array pass replaced."""
    seen = set()
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
    return tuple(sorted(seen))


@st.composite
def raw_edge_lists(draw):
    """Valid edge lists, each pair in either order, with up to two faults
    inserted anywhere: an out-of-range endpoint (beyond int64 too), a
    self-loop (out of range too), or a repeat of a listed pair in either order."""
    n = draw(st.integers(min_value=2, max_value=10))
    node = st.integers(0, n - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda e: e[0] != e[1]),
            max_size=3 * n,
            unique_by=lambda e: (min(e), max(e)),
        )
    )
    outside = st.sampled_from([-1, n, n + 3, 2**63, -(2**70)])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["range", "self", "repeat"]))
        if kind == "range":
            fault = draw(st.permutations([draw(outside), draw(node)]))
        elif kind == "self" or not pairs:
            fault = [draw(st.one_of(node, outside))] * 2
        else:
            fault = draw(st.permutations(draw(st.sampled_from(pairs))))
        pairs.insert(draw(st.integers(0, len(pairs))), tuple(fault))
    leaders = draw(st.sets(node, min_size=1, max_size=n - 1))
    return n, pairs, leaders


@settings(max_examples=200)
@given(raw_edge_lists())
def test_build_graph_matches_per_edge_reference(case):
    n, pairs, leaders = case
    try:
        expected = reference_edges(n, pairs)
    except GroundspectError as exc:
        with pytest.raises(GroundspectError) as info:
            gs.build_graph(n, pairs)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    g = gs.build_graph(n, pairs)
    assert g.edges == expected
    assert all(type(x) is int for e in g.edges for x in e)
    twin = gs.build_graph(n, [(j, i) for i, j in reversed(pairs)])
    assert g == twin and hash(g) == hash(twin)
    a = g.adjacency
    assert a.dtype == bool and a.shape == (n, n) and not a.flags.writeable
    assert (a == a.T).all() and not a.diagonal().any()
    assert np.count_nonzero(a) == 2 * len(expected)

    nbrs = [set() for _ in range(n)]
    for i, j in expected:
        nbrs[i].add(j)
        nbrs[j].add(i)
    reached, queue = {0}, deque([0])
    while queue:
        for j in nbrs[queue.popleft()] - reached:
            reached.add(j)
            queue.append(j)
    assert gs.is_connected(g) == (len(reached) == n)
    p = gs.make_partition(n, leaders)
    assert gs.min_follower_degree(g, p) == min(len(nbrs[j] - leaders) for j in p.followers)
    assert gs.leaders_nonadjacent(g, p) == all(nbrs[j].isdisjoint(leaders) for j in leaders)
    assert [g.degree(i) for i in range(n)] == [len(nb) for nb in nbrs]
