"""Densifying-family generation, validation, and determinism."""

import dataclasses
import hashlib
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect import io
from groundspect.errors import InfeasibleConfigError, UncertifiableDegreesWarning

from reference_sequences import reference_random_graph, reference_sequence, validate_sequence


def small_cfg(**kw):
    base = dict(leader_degrees=(2, 2), initial_followers=4, steps=1, rng_seed=3)
    base.update(kw)
    return gs.SequenceConfig(**base)


class TestConfigIntegers:
    """The Python API refuses what the JSON parser refuses, instead of truncating."""

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"leader_degrees": (2.7,)}, "leader degree must be an integer, got 2.7"),
            ({"leader_degrees": (True, 2)}, "leader degree must be an integer, got true"),
            ({"initial_followers": 5.5, "steps": 2.5}, "initial_followers must be an integer"),
            ({"steps": 2.0}, "steps must be an integer, got 2.0"),
            ({"rng_seed": 1.5}, "rng_seed must be an integer, got 1.5"),
            ({"rng_seed": False}, "rng_seed must be an integer, got false"),
        ],
    )
    def test_non_integers_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_cfg(**kw)

    def test_numpy_integers_stored_as_int(self):
        cfg = small_cfg(
            leader_degrees=(np.int64(2), 2), initial_followers=np.int32(4), rng_seed=np.uint64(3)
        )
        assert cfg == small_cfg()
        ints = (*cfg.leader_degrees, cfg.initial_followers, cfg.steps, cfg.rng_seed)
        assert all(type(x) is int for x in ints)
        assert json.dumps(cfg.to_json())


class TestUncertifiableDegrees:
    """SequenceConfig warns on leader degrees that fail condition (iii) at every density."""

    @pytest.mark.parametrize("degrees", [(1, 10), (1, 2, 5)])
    def test_warns(self, degrees):
        with pytest.warns(UncertifiableDegreesWarning, match="can never be certified") as record:
            gs.SequenceConfig(degrees, 10, 1)
        assert record[0].filename == __file__  # the caller's line, not the dataclass's

    @pytest.mark.parametrize("degrees", [(1, 2, 4), (2, 2), (2, 3, 2), (1,)])
    def test_silent(self, degrees):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UncertifiableDegreesWarning)
            small_cfg(leader_degrees=degrees)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 15), min_size=1, max_size=4), st.floats(1e-4, 0.999))
    def test_warned_sets_fail_at_every_density(self, degrees, lambda_f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gs.SequenceConfig(tuple(degrees), max(degrees), 1)
        g, p = gs.dense_follower_instance(max(degrees), tuple(degrees))
        eps_d, limit_gap = gs.separation_quantities(gs.limiting_fiedler_vector(g, p, lambda_f), p)
        assume(abs(eps_d - limit_gap) > 1e-9)  # the profile's floats are not exact
        if caught:
            assert eps_d < limit_gap


# The drawn degree lists mix 1 and 3, which no density certifies. These tests check the
# generator, not the certificate, so they ignore SequenceConfig's warning about such sets.
IGNORE_UNCERTIFIABLE = pytest.mark.filterwarnings(
    "ignore::groundspect.errors.UncertifiableDegreesWarning"
)


class TestGenerate:
    def test_single_element_contract(self):
        seq = gs.generate_sequence(small_cfg())
        assert len(seq) == 1
        g, p = seq.elements[0]
        assert gs.is_connected(g)
        assert gs.leaders_nonadjacent(g, p)
        assert [g.degree(j) for j in p.leaders] == [2, 2]
        # follower subgraph is a spanning tree plus nothing else
        ff_edges = [
            e for e in g.edges if e[0] not in p.leaders and e[1] not in p.leaders
        ]
        assert len(ff_edges) == len(p.followers) - 1

    def test_min_degree_strictly_increases(self):
        seq = gs.generate_sequence(small_cfg(steps=4, initial_followers=8))
        mins = [gs.min_follower_degree(g, p) for g, p in seq.elements]
        assert len(mins) == 4
        assert all(b > a for a, b in zip(mins, mins[1:]))

    def test_infeasible_degree(self):
        with pytest.raises(InfeasibleConfigError):
            gs.generate_sequence(small_cfg(leader_degrees=(5,), initial_followers=3))

    def test_leader_adjacency_frozen_after_element_zero(self):
        seq = gs.generate_sequence(small_cfg(steps=5, initial_followers=8))
        first_g, first_p = seq.elements[0]
        leader_edges = {
            e for e in first_g.edges if e[0] in first_p.leaders or e[1] in first_p.leaders
        }
        for g, p in seq.elements[1:]:
            now = {e for e in g.edges if e[0] in p.leaders or e[1] in p.leaders}
            assert now == leader_edges

    def test_saturation_returns_shorter_sequence(self):
        seq = gs.generate_sequence(small_cfg(leader_degrees=(1,), initial_followers=3, steps=10))
        assert seq.saturated
        assert len(seq) < 10
        # the complete follower graph bounds the reachable minimum degree
        g, p = seq.elements[-1]
        assert gs.min_follower_degree(g, p) <= len(p.followers) - 1
        assert validate_sequence(seq) == {}

    def test_node_growth_mode(self):
        cfg = small_cfg(steps=4, initial_followers=6, growth="add_nodes_and_edges")
        seq = gs.generate_sequence(cfg)
        sizes = [g.n for g, _ in seq.elements]
        assert sizes == [8, 9, 10, 11]
        assert validate_sequence(seq) == {}

    def test_determinism_bit_identical(self, tmp_path):
        cfg = small_cfg(steps=3, initial_followers=6, rng_seed=99)
        a, b = gs.generate_sequence(cfg), gs.generate_sequence(cfg)
        assert a.elements == b.elements
        io.save_sequence(tmp_path / "a.json", a)
        io.save_sequence(tmp_path / "b.json", b)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self):
        a = gs.generate_sequence(small_cfg(steps=2, initial_followers=8, rng_seed=1))
        b = gs.generate_sequence(small_cfg(steps=2, initial_followers=8, rng_seed=2))
        assert a.elements != b.elements


# SHA-256 of the edge lists and saturation flags of PINNED_CONFIGS. Generated
# families (and so saved sequence files) must never change for a given config;
# the digest predates the incremental follower-degree bookkeeping and the
# family's one carried adjacency.
PINNED_CONFIGS = (
    gs.SequenceConfig((2, 3, 2), 30, 10, "densify_edges", 7),
    gs.SequenceConfig((2, 3), 20, 8, "add_nodes_and_edges", 8),
    gs.SequenceConfig((2, 2), 5, 30, "densify_edges", 9),  # saturates after 4
)
PINNED_DIGEST = "67ec857b02f3a088c45401e13942c76f3edc045b007c543ea046da0f0a6f803c"


def brute_min_ff_degree(g, p):
    deg = dict.fromkeys(p.followers, 0)
    for a, b in g.edges:
        if a in deg and b in deg:
            deg[a] += 1
            deg[b] += 1
    return min(deg.values())


class TestPinnedFamilies:
    def test_generated_edges_match_pinned_digest(self):
        seqs = [gs.generate_sequence(cfg) for cfg in PINNED_CONFIGS]
        h = hashlib.sha256()
        for seq in seqs:
            h.update(json.dumps([[g.edges for g, _ in seq.elements], seq.saturated]).encode())
        assert [len(seq) for seq in seqs] == [10, 8, 4]
        assert h.hexdigest() == PINNED_DIGEST


@IGNORE_UNCERTIFIABLE
@settings(max_examples=60, deadline=None)
@given(
    leader_degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    extra_followers=st.integers(0, 9),
    steps=st.integers(1, 10),
    growth=st.sampled_from(gs.sequences.GROWTH_MODES),
    seed=st.integers(0, 2**32 - 1),
)
def test_incremental_minimum_matches_recount(
    leader_degrees, extra_followers, steps, growth, seed
):
    cfg = gs.SequenceConfig(
        tuple(leader_degrees), max(leader_degrees) + extra_followers, steps, growth, seed
    )
    seq = gs.generate_sequence(cfg)
    mins = [gs.min_follower_degree(g, p) for g, p in seq.elements]
    assert mins == [brute_min_ff_degree(g, p) for g, p in seq.elements]
    assert validate_sequence(seq) == {}
    # One edge raises the minimum by at most one, so each element stops
    # exactly one above the last; only a complete follower subgraph saturates.
    assert all(b == a + 1 for a, b in zip(mins, mins[1:]))
    _, p = seq.elements[-1]
    if seq.saturated:
        assert mins[-1] == len(p.followers) - 1
    else:
        assert len(seq) == steps


@IGNORE_UNCERTIFIABLE
@settings(max_examples=80, deadline=None)
@given(
    leader_degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    extra_followers=st.integers(0, 6),
    steps=st.integers(1, 14),
    growth=st.sampled_from(gs.sequences.GROWTH_MODES),
    seed=st.integers(0, 2**32 - 1),
)
@example([2, 2], 3, 30, "densify_edges", 9)  # PINNED_CONFIGS[2]: saturates after 4
@example([1], 0, 12, "densify_edges", 0)  # one follower: saturates at once
def test_matches_set_based_reference(leader_degrees, extra_followers, steps, growth, seed):
    cfg = gs.SequenceConfig(
        tuple(leader_degrees), max(leader_degrees) + extra_followers, steps, growth, seed
    )
    seq, ref = gs.generate_sequence(cfg), reference_sequence(cfg)
    assert seq.saturated == ref.saturated
    assert [g.edges for g, _ in seq.elements] == [g.edges for g, _ in ref.elements]
    assert [p for _, p in seq.elements] == [p for _, p in ref.elements]
    for (g, _), (r, _) in zip(seq.elements, ref.elements):
        assert np.array_equal(g.adjacency, r.adjacency)


def draw_ahead_paths(cfg, draw_ahead):
    """The draw-ahead paths generate_sequence takes on cfg with chunks of draw_ahead
    edge draws, read off the reference family: an element draws the follower pairs
    it adds, and it stops inside a chunk (so the generator is rewound) when that
    count is no multiple of the chunk and the pairs it may draw are not used up."""
    ref = reference_sequence(cfg)
    grow = cfg.growth == "add_nodes_and_edges"
    sizes = [len(g.edges) for g, _ in ref.elements]
    draws = [b - a - grow for a, b in zip(sizes, sizes[1:])]
    rewound = [
        k % draw_ahead != 0 and gs.min_follower_degree(g, p) < len(p.followers) - 1
        for k, (g, p) in zip(draws, ref.elements[1:])
    ]
    return {
        "second chunk": any(k > draw_ahead for k in draws),
        "rewind, then an element": any(rewound[:-1]),
        "rewind, then an anchor draw": grow and any(rewound[:-1]),
        "saturates": ref.saturated,
    }


# (leader_degrees, extra_followers, steps, growth, seed, draw_ahead), each forcing one path
DRAW_AHEAD_CASES = {
    "second chunk": ([2, 3, 2], 57, 24, "densify_edges", 2, 128),  # 144 draws in one element
    "rewind, then an element": ([1, 2], 3, 10, "densify_edges", 1, 2),
    "rewind, then an anchor draw": ([2], 2, 12, "add_nodes_and_edges", 0, 4),
    "saturates": ([2, 2], 3, 30, "densify_edges", 9, 128),  # PINNED_CONFIGS[2]
}


@pytest.mark.parametrize("path", DRAW_AHEAD_CASES)
def test_draw_ahead_cases_force_their_path(path):
    degrees, extra, steps, growth, seed, draw_ahead = DRAW_AHEAD_CASES[path]
    cfg = gs.SequenceConfig(tuple(degrees), max(degrees) + extra, steps, growth, seed)
    assert draw_ahead_paths(cfg, draw_ahead)[path]


@IGNORE_UNCERTIFIABLE
@settings(max_examples=60, deadline=None)
@given(
    leader_degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    extra_followers=st.integers(0, 9),
    steps=st.integers(1, 12),
    growth=st.sampled_from(gs.sequences.GROWTH_MODES),
    seed=st.integers(0, 2**32 - 1),
    draw_ahead=st.integers(1, 6) | st.just(gs.sequences._DRAW_AHEAD),
)
@example(*DRAW_AHEAD_CASES["second chunk"])
@example(*DRAW_AHEAD_CASES["rewind, then an element"])
@example(*DRAW_AHEAD_CASES["rewind, then an anchor draw"])
@example(*DRAW_AHEAD_CASES["saturates"])
def test_draw_ahead_matches_one_draw_per_edge(
    leader_degrees, extra_followers, steps, growth, seed, draw_ahead
):
    """Whatever the chunk size, drawing ahead and rewinding gives the family, and
    leaves the generator, as one scalar draw per edge does."""
    cfg = gs.SequenceConfig(
        tuple(leader_degrees), max(leader_degrees) + extra_followers, steps, growth, seed
    )
    made, default_rng = [], np.random.default_rng
    with mock.patch.object(gs.sequences, "_DRAW_AHEAD", draw_ahead), mock.patch.object(
        np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1]
    ):
        seq, ref = gs.generate_sequence(cfg), reference_sequence(cfg)
    assert seq.saturated == ref.saturated
    assert [g.edges for g, _ in seq.elements] == [g.edges for g, _ in ref.elements]
    generated, reference = made
    assert generated.bit_generator.state == reference.bit_generator.state


class TestCarriedAdjacency:
    @pytest.mark.parametrize("growth", gs.sequences.GROWTH_MODES)
    def test_each_element_owns_a_read_only_adjacency(self, growth):
        cfg = small_cfg(steps=6, initial_followers=8, growth=growth)
        seq = gs.generate_sequence(cfg)
        # generating the later elements leaves element 0 as a one-element family has it
        alone = gs.generate_sequence(dataclasses.replace(cfg, steps=1)).elements[0][0]
        assert np.array_equal(seq.elements[0][0].adjacency, alone.adjacency)
        for g, _ in seq.elements:
            a = g.adjacency
            assert a.shape == (g.n, g.n) and a.flags.owndata and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = True
        adjacencies = [g.adjacency for g, _ in seq.elements]
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(adjacencies) for b in adjacencies[i + 1 :]
        )


class TestValidate:
    def test_generated_sequences_pass(self):
        for growth in gs.sequences.GROWTH_MODES:
            for seed in (0, 1, 2):
                seq = gs.generate_sequence(
                    small_cfg(steps=4, initial_followers=7, growth=growth, rng_seed=seed)
                )
                failures = validate_sequence(seq)
                assert failures == {}, failures

    def test_leader_leader_edge_detected(self):
        seq = gs.generate_sequence(small_cfg(steps=2, initial_followers=6))
        g1, p1 = seq.elements[1]
        tampered_g = gs.build_graph(g1.n, list(g1.edges) + [(0, 1)])
        tampered = gs.GraphSequence(
            elements=(seq.elements[0], (tampered_g, p1)), config=seq.config
        )
        # the leader-leader edge also raises both leaders' degrees
        assert validate_sequence(tampered) == {"leader_degrees_constant": 1, "leaders_nonadjacent": 1}

    def test_single_graph_vacuous_properties(self):
        seq = gs.generate_sequence(small_cfg())
        assert validate_sequence(seq) == {}

    def test_stalled_min_degree_detected(self):
        seq = gs.generate_sequence(small_cfg(steps=2, initial_followers=6))
        stalled = gs.GraphSequence(
            elements=(seq.elements[0], seq.elements[0]), config=seq.config
        )
        assert validate_sequence(stalled) == {"min_follower_degree_increasing": 1}


class TestSpectralTrendsAlongSequences:
    def test_lambda_in_range_and_limit_residual_shrinks(self):
        cfg = gs.SequenceConfig(
            leader_degrees=(2, 3), initial_followers=24, steps=20, rng_seed=5
        )
        seq = gs.generate_sequence(cfg)
        assert gs.min_follower_degree(*seq.elements[-1]) >= 20
        residuals = []
        for g, p in seq.elements:
            r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
            assert 0.0 < r.lambda_f < 1.0
            adj = gs.semi_normalized_adjacency(g, p, r.lambda_f)
            vbar = gs.limiting_fiedler_vector(g, p, r.lambda_f)
            residuals.append(np.abs(adj.matrix @ vbar - vbar).max())
        assert residuals[-1] < residuals[0]


class TestRandomGraphs:
    def test_random_connected_graph(self):
        rng = np.random.default_rng(0)
        g, p = gs.random_connected_graph(12, 3, rng)
        assert gs.is_connected(g)
        assert len(p.leaders) == 3

    def test_ensemble_shape(self, ensemble):
        assert len(ensemble) == 200
        for g, p in ensemble:
            assert 3 <= g.n <= 40
            assert 1 <= len(p.leaders) <= g.n - 1
            assert gs.is_connected(g)

    def test_random_graph_matches_per_pair_draws(self):
        for seed in range(40):
            n, n_leaders = 2 + seed, 1 + seed // 2
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            (g, p), (r, q) = (
                gs.random_connected_graph(n, n_leaders, rng, 0.3),
                reference_random_graph(n, n_leaders, ref_rng, 0.3),
            )
            assert g.edges == r.edges and np.array_equal(g.adjacency, r.adjacency) and p == q
            assert not g.adjacency.flags.writeable
            assert rng.random() == ref_rng.random()  # the same draws, no more and no fewer

    def test_ensemble_is_seed_deterministic(self):
        a = gs.random_ensemble(5, seed=31)
        b = gs.random_ensemble(5, seed=31)
        assert [g.edges for g, _ in a] == [g.edges for g, _ in b]
        assert [p.leaders for _, p in a] == [p.leaders for _, p in b]
