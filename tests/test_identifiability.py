"""Limiting profile, margins, and the separation certificate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect.errors import IsolatedLeaderError

from conftest import K3_LAMBDA

positive_scales = st.floats(min_value=1e-6, max_value=1e6)


class TestLimitingLeaderEntry:
    def test_direct_substitution(self):
        assert gs.limiting_leader_entry(2, 0.5) == pytest.approx(0.8)

    def test_k3_value(self):
        assert gs.limiting_leader_entry(2, K3_LAMBDA) == pytest.approx(
            2.0 / (1.0 + np.sqrt(3.0)), abs=1e-12
        )

    def test_monotone_in_degree_and_bounded(self):
        lam = 0.37
        values = [gs.limiting_leader_entry(d, lam) for d in range(1, 200)]
        assert all(0.0 < x < 1.0 for x in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_degree_zero_rejected(self):
        with pytest.raises(IsolatedLeaderError):
            gs.limiting_leader_entry(0, 0.5)


class TestLimitingVector:
    def test_k3(self, k3):
        vbar = gs.limiting_fiedler_vector(*k3, K3_LAMBDA)
        np.testing.assert_allclose(
            vbar, [2.0 / (1.0 + np.sqrt(3.0)), 1.0, 1.0], atol=1e-12
        )
        assert not vbar.flags.writeable

    def test_follower_entries_exactly_one(self, ensemble):
        for g, p in ensemble[:20]:
            vbar = gs.limiting_fiedler_vector(g, p, 0.4)
            assert all(vbar[j] == 1.0 for j in p.followers)
            assert all(0.0 < vbar[j] < 1.0 for j in p.leaders)

    def test_degree_one_leaders(self):
        g = gs.build_graph(4, [(0, 2), (1, 2), (2, 3)])
        p = gs.make_partition(4, [0, 1])
        vbar = gs.limiting_fiedler_vector(g, p, 0.5)
        np.testing.assert_allclose(vbar[:2], [1.0 / 1.5, 1.0 / 1.5])

    def test_isolated_leader_rejected(self):
        g = gs.build_graph(3, [(1, 2)])
        p = gs.make_partition(3, [0])
        with pytest.raises(IsolatedLeaderError):
            gs.limiting_fiedler_vector(g, p, 0.5)


def limit_separation(g, p, lam):
    """(epsilon_d, largest limiting leader gap): the separation test on the limiting profile."""
    return gs.separation_quantities(gs.limiting_fiedler_vector(g, p, lam), p)


class TestSeparationMargin:
    def test_k3_single_leader(self, k3):
        margin, _ = limit_separation(*k3, K3_LAMBDA)
        assert margin == pytest.approx(1.0 - 2.0 / (1.0 + np.sqrt(3.0)), abs=1e-12)

    def test_single_leader_second_term_vanishes(self, k3):
        assert limit_separation(*k3, K3_LAMBDA)[1] == 0.0

    def test_equal_degree_leaders(self):
        # both leaders degree 2: no gap between the leader entries
        g, p = gs.dense_follower_instance(6, (2, 2))
        lam = 0.3
        phi = gs.limiting_leader_entry(2, lam)
        margin, spread = limit_separation(g, p, lam)
        assert margin == pytest.approx(1.0 - phi)
        assert margin - spread == pytest.approx(1.0 - phi)

    def test_self_inclusive_reading_drops_second_term(self):
        g, p = gs.dense_follower_instance(8, (2, 4))
        lam = 0.25
        phi2 = gs.limiting_leader_entry(2, lam)
        phi4 = gs.limiting_leader_entry(4, lam)
        margin, spread = limit_separation(g, p, lam)
        assert margin == pytest.approx(1.0 - phi4)
        assert margin - spread == pytest.approx(1.0 - phi4 - (phi4 - phi2))


class TestScaleOptimalDistance:
    def test_collinear_is_zero(self):
        v = np.array([0.2, 0.4, 0.6])
        assert gs.scale_optimal_distance(v, 3.7 * v) == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_scan_oracle(self, k3):
        # independent oracle: 1-D scan of ||vbar - c v|| over c in [0, 3]
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        vbar = gs.limiting_fiedler_vector(*k3, r.lambda_f)
        c_grid = np.arange(0.0, 3.0, 1e-6)
        t, v = vbar, r.v_f
        dist2 = (
            np.dot(t, t) - 2.0 * c_grid * np.dot(t, v) + c_grid**2 * np.dot(v, v)
        )
        best = c_grid[dist2.argmin()]
        c_star = np.dot(t, v) / np.dot(v, v)
        assert abs(best - c_star) <= 1e-6
        assert gs.scale_optimal_distance(v, vbar) == pytest.approx(
            np.sqrt(dist2.min()), abs=1e-6
        )

    @settings(max_examples=60)
    @given(positive_scales)
    def test_scale_invariance(self, c):
        v = np.array([0.3, 0.5, 1.0, 1.1])
        target = np.array([0.7, 0.7, 1.0, 1.0])
        base = gs.scale_optimal_distance(v, target)
        assert gs.scale_optimal_distance(c * v, target) == pytest.approx(
            base, rel=1e-9
        )

    @settings(max_examples=60)
    @given(positive_scales)
    def test_optimal_scale_beats_any_other(self, c):
        v = np.array([0.3, 0.5, 1.0, 1.1])
        target = np.array([0.7, 0.7, 1.0, 1.0])
        assert gs.scale_optimal_distance(v, target) <= np.linalg.norm(
            target - c * v
        ) + 1e-12


class TestSeparationQuantities:
    def test_single_leader(self):
        p = gs.make_partition(3, [0])
        lhs, rhs = gs.separation_quantities(np.array([0.7, 1.0, 1.0]), p)
        assert (lhs, rhs) == (pytest.approx(0.3), 0.0)

    def test_two_leaders_both_readings(self):
        # the second quantity is the gap between the two leader entries, never
        # a self-inclusive 0
        p = gs.make_partition(4, [0, 1])
        v = np.array([0.7, 0.72, 1.0, 1.0])
        lhs, rhs = gs.separation_quantities(v, p)
        assert lhs == pytest.approx(0.28)
        assert rhs == pytest.approx(0.02)

    def test_recorded_ten_node_estimate(self):
        # frozen 10-agent estimate whose true leaders are {2, 4, 8} (1-based)
        v = np.array(
            [0.3376, 0.2661, 0.3276, 0.2649, 0.3232,
             0.3277, 0.3501, 0.2638, 0.3420, 0.3417]
        )
        p = gs.make_partition(10, [1, 3, 7])
        lhs, rhs = gs.separation_quantities(v, p)
        assert lhs == pytest.approx(0.3232 - 0.2661, abs=1e-12)
        assert rhs == pytest.approx(0.3376 - 0.3277, abs=1e-12)  # largest follower gap
        assert lhs > rhs

    def test_two_tight_leader_pairs_far_apart(self):
        # each leader's nearest other leader is 0.01 away, yet the largest
        # gap of the sorted vector lies between the two pairs
        p = gs.make_partition(6, [0, 1, 2, 3])
        v = np.array([0.1, 0.11, 0.7, 0.71, 1.0, 1.0])
        lhs, rhs = gs.separation_quantities(v, p)
        assert lhs == pytest.approx(0.29)
        assert rhs == pytest.approx(0.59)
        assert gs.identify_leaders(v).leader_set == {0, 1}


class TestCheckIdentifiability:
    def test_k3_single_leader(self, k3):
        rep = gs.check_identifiability(*k3)
        assert rep.connected
        assert rep.leaders_nonadjacent  # vacuously, single leader
        # one leader has no gap of its own; the two followers are symmetric
        assert rep.separation_rhs_other_gap == pytest.approx(0.0, abs=1e-12)

    def test_k3_adjacent_leaders(self):
        g = gs.build_graph(3, [(0, 1), (1, 2), (0, 2)])
        p = gs.make_partition(3, [0, 1])
        rep = gs.check_identifiability(g, p)
        assert not rep.leaders_nonadjacent
        assert not rep.separated

    def test_dense_follower_instance_certified(self, dense12):
        rep = gs.check_identifiability(*dense12)
        assert rep.connected
        assert rep.leaders_nonadjacent
        assert rep.condition_iii_holds
        assert rep.condition_iv_holds
        assert rep.separated
        assert rep.min_follower_degree == 9

    def test_epsilon_fields_consistent(self, dense12):
        g, p = dense12
        rep = gs.check_identifiability(g, p)
        r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        assert rep.lambda_f == r.lambda_f
        margin, spread = limit_separation(g, p, r.lambda_f)
        assert rep.epsilon_d == pytest.approx(margin)
        assert rep.epsilon_d_margin == pytest.approx(margin - spread)
        assert rep.epsilon == pytest.approx(
            gs.scale_optimal_distance(
                r.v_f, gs.limiting_fiedler_vector(g, p, r.lambda_f)
            )
        )
        assert rep.condition_iv_holds == (rep.epsilon < rep.epsilon_d / 4.0)

    def test_scale_invariance_of_verdicts(self, dense12):
        # every boolean is computed from scale-homogeneous quantities
        g, p = dense12
        r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        v, scaled = r.v_f, 7.3 * r.v_f
        vbar = gs.limiting_fiedler_vector(g, p, r.lambda_f)
        assert gs.scale_optimal_distance(v, vbar) == pytest.approx(
            gs.scale_optimal_distance(scaled, vbar), rel=1e-12
        )
        lhs, _ = gs.separation_quantities(v, p)
        lhs_s, rhs_s = gs.separation_quantities(scaled, p)
        assert (lhs > 0) == (lhs_s > 0)
        assert (lhs > rhs_s / 7.3) == (lhs_s > rhs_s)

    def test_single_leader_rhs_zero_on_separated_ensemble(self, ensemble):
        for g, p in ensemble:
            if len(p.leaders) != 1:
                continue
            rep = gs.check_identifiability(g, p)
            # one leader has no gap of its own: rhs is the largest follower gap
            followers = np.sort(rep.spectral.v_f[list(p.followers)])
            assert rep.separation_rhs_other_gap == np.diff(followers).max(initial=0.0)
            if rep.separated:
                assert rep.separation_lhs > 0.0

    def test_json_has_every_field(self, dense12):
        payload = gs.check_identifiability(*dense12).to_json()
        assert set(payload) == {
            "connected",
            "leaders_nonadjacent",
            "lambda_F",
            "epsilon_d",
            "epsilon_d_margin",
            "epsilon",
            "condition_iii_holds",
            "condition_iv_holds",
            "separation_lhs",
            "separation_rhs_other_gap",
            "separated",
            "min_follower_degree",
        }


def mixed_degree_instances(count: int, seed: int):
    """Seeded dense-follower draws with 2-5 leaders of independent random
    degrees in [1, F/2), F in [10, 60]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        followers = int(rng.integers(10, 61))
        n_leaders = int(rng.integers(2, 6))
        degrees = tuple(int(d) for d in rng.integers(1, followers // 2, size=n_leaders))
        yield gs.dense_follower_instance(followers, degrees, rng)


class TestSeparatedImpliesCut:
    """A separated graph's largest-gap cut on its own Fiedler vector is exact."""

    def test_mixed_degree_ensemble(self):
        certified = 0
        for g, p in mixed_degree_instances(600, seed=0):
            rep = gs.check_identifiability(g, p)
            assert rep.condition_iii_holds == (rep.epsilon_d_margin > 0.0)
            if abs(rep.epsilon_d_margin) > 1e-9:
                degrees = [g.degree(j) for j in p.leaders]
                assert rep.condition_iii_holds == margin_positive_by_degrees(degrees, rep.lambda_f)
            if rep.separated:
                certified += 1
                assert gs.identify_leaders(rep.spectral.v_f).leader_set == set(p.leaders)
        assert certified > 100  # 188 on x86-64 with OpenBLAS

    def test_two_degree_groups_declined(self):
        # leaders of degrees 1, 1, 10, 10 on a complete 40-follower subgraph:
        # v_F stays within epsilon_d/4 of its limit and every leader entry lies
        # below every follower entry, yet the largest gap of sorted v_F falls
        # between the two leader groups
        g, p = gs.dense_follower_instance(40, (1, 1, 10, 10))
        rep = gs.check_identifiability(g, p)
        assert rep.condition_iv_holds
        assert rep.separation_lhs > 0.0
        assert rep.separation_rhs_other_gap > rep.separation_lhs
        assert rep.epsilon_d_margin < 0.0 < rep.epsilon_d
        assert not rep.condition_iii_holds
        assert not rep.separated
        assert gs.identify_leaders(rep.spectral.v_f).leader_set == {0, 1}


def margin_positive_by_degrees(degrees, lambda_f):
    """Condition (iii) from the leader degrees and lambda_F alone: with c = 1 - lambda_F,
    the gap c(d' - d)/((d + c)(d' + c)) between the limit entries of consecutive distinct
    degrees d < d' is below the cut's gap c/(d_max + c)."""
    c = 1.0 - lambda_f
    steps = sorted(set(degrees))
    return all((b - a) * (steps[-1] + c) < (a + c) * (b + c) for a, b in zip(steps, steps[1:]))


@settings(max_examples=300)
@given(
    st.lists(st.integers(1, 15), min_size=1, max_size=4),
    st.floats(min_value=1e-4, max_value=0.999),
)
def test_closed_form_predicts_the_margin_sign(degrees, lambda_f):
    g, p = gs.dense_follower_instance(max(degrees), tuple(degrees))
    eps_d, limit_gap = gs.separation_quantities(gs.limiting_fiedler_vector(g, p, lambda_f), p)
    margin = eps_d - limit_gap
    assume(abs(margin) > 1e-9)  # the closed form is exact; the profile's floats are not
    assert (margin > 0.0) == margin_positive_by_degrees(degrees, lambda_f)
