"""Graph construction, partitions, and grounded-Laplacian assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect.errors import (
    DuplicateEdgeError,
    EmptyFollowerSetError,
    EmptyLeaderSetError,
    IndexOutOfRangeError,
    SelfLoopError,
)


class TestBuildGraph:
    def test_p2(self):
        g = gs.build_graph(2, [(0, 1)])
        assert g.edges == ((0, 1),)
        assert g.neighbors == ((1,), (0,))

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

    def test_too_small(self):
        with pytest.raises(ValueError):
            gs.build_graph(1, [])


class TestConnectivity:
    def test_p2_connected(self):
        assert gs.is_connected(gs.build_graph(2, [(0, 1)]))

    def test_two_components(self):
        assert not gs.is_connected(gs.build_graph(4, [(0, 1), (2, 3)]))

    def test_k3_connected(self):
        assert gs.is_connected(gs.build_graph(3, [(0, 1), (1, 2), (0, 2)]))


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
            diff = gs.grounded_laplacian(g, p).matrix - g.laplacian_matrix()
            assert np.count_nonzero(diff - np.diag(np.diag(diff))) == 0
            assert np.trace(diff) == len(p.leaders)

    def test_positive_definite_on_ensemble(self, ensemble):
        for g, p in ensemble[:40]:
            w, _ = gs.eig_symmetric(gs.grounded_laplacian(g, p).matrix)
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
        for j in g.neighbors[i]:
            assert i in g.neighbors[j]
        assert g.degree(i) == len(g.neighbors[i])
    assert len(g.edges) == len(edges)


@settings(max_examples=50)
@given(edge_lists())
def test_adjacency_matches_edges(case):
    n, edges = case
    g = gs.build_graph(n, edges)
    a = g.adjacency_matrix()
    assert (a == a.T).all()
    assert a.sum() == 2 * len(edges)
    assert np.trace(a) == 0.0
