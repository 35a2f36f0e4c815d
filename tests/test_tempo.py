"""Relative tempos, Fiedler estimation from velocities, and gap detection."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundspect as gs
from groundspect.errors import (
    AllVelocitiesZeroError,
    DegenerateEstimateError,
    MeasurementTimeCappedWarning,
    ZeroReferenceVelocityError,
)

from conftest import GOLDEN, decompose

# frozen 10-agent velocity-derived estimate; its true leaders are {2, 4, 8}
# in 1-based labels
RECORDED_ESTIMATE = np.array(
    [0.3376, 0.2661, 0.3276, 0.2649, 0.3232,
     0.3277, 0.3501, 0.2638, 0.3420, 0.3417]
)


def one_d_input(p, value):
    return gs.ExternalInput(dimension=1, values={l: (float(value),) for l in p.leaders})


class TestRelativeTempo:
    def test_self_ratio_is_exactly_one(self):
        vel = np.array([[0.3, 0.1], [0.2, -0.4]])
        assert gs.relative_tempo(vel, 1, 1) == 1.0

    def test_scalar_ratio(self):
        vel = np.array([2.0, 3.0, -1.0])
        assert gs.relative_tempo(vel, 0, 1) == pytest.approx(2.0 / 3.0)

    def test_projection_ratio_for_vectors(self):
        vel = np.array([[1.0, 1.0], [2.0, 0.0]])
        assert gs.relative_tempo(vel, 0, 1) == pytest.approx(0.5)

    def test_zero_reference_rejected(self):
        vel = np.array([[1.0], [0.0]])
        with pytest.raises(ZeroReferenceVelocityError):
            gs.relative_tempo(vel, 0, 1)

    def test_p2_late_time_golden_ratio(self, p2):
        g, p = p2
        u = one_d_input(p, 5.0)
        spect = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        t_meas, dom = gs.choose_measurement_time(spect.spectrum)
        assert dom <= 1e-6
        cfg = gs.SimConfig(dimension=1, dt=t_meas / 512, t_final=t_meas, integrator="exact")
        traj = gs.simulate(spect, u, np.zeros((2, 1)), cfg)
        vel = gs.measure_velocities(traj, t_meas)
        assert gs.relative_tempo(vel, 1, 0) == pytest.approx(GOLDEN, abs=1e-4)


class TestEstimateFiedler:
    def test_pure_fiedler_mode_recovered_exactly(self, dense12):
        r = gs.fiedler_pair(gs.grounded_laplacian(*dense12))
        vel = np.outer(-r.lambda_f * r.v_f, [0.8, -0.3])  # two dimensions
        _, estimate = gs.estimate_fiedler(vel)
        assert np.abs(estimate - r.v_f).max() <= 1e-12

    def test_scaling_invariance(self, dense12):
        r = gs.fiedler_pair(gs.grounded_laplacian(*dense12))
        vel = np.outer(r.v_f, [1.0])
        _, a = gs.estimate_fiedler(vel)
        _, b = gs.estimate_fiedler(137.0 * vel)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_reference_is_max_norm_agent(self):
        vel = np.array([[1.0], [-3.0], [2.0]])
        reference, _ = gs.estimate_fiedler(vel)
        assert reference == 1

    def test_reference_choice_invariance(self, dense12):
        # ratios cancel: the normalized estimate is reference-independent
        r = gs.fiedler_pair(gs.grounded_laplacian(*dense12))
        rng = np.random.default_rng(2)
        vel = np.outer(r.v_f, rng.normal(size=2)) + 1e-12 * rng.normal(
            size=(r.v_f.size, 2)
        )
        n = vel.shape[0]
        estimates = []
        for ref in range(n):
            values = np.array([gs.relative_tempo(vel, i, ref) for i in range(n)])
            est = values / np.linalg.norm(values)
            estimates.append(est if est[np.abs(est).argmax()] > 0 else -est)
        for est in estimates[1:]:
            np.testing.assert_allclose(est, estimates[0], atol=1e-9)

    def test_all_zero_velocities_rejected(self):
        with pytest.raises(AllVelocitiesZeroError):
            gs.estimate_fiedler(np.zeros((4, 2)))

    def test_underflowing_reference_rejected(self):
        # the norms are representable, the reference's squared norm is not
        vel = 1e-160 * np.random.default_rng(5).normal(size=(6, 2))
        with pytest.raises(ZeroReferenceVelocityError):
            gs.estimate_fiedler(vel)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_values_match_relative_tempo(self, dense12, d):
        r = gs.fiedler_pair(gs.grounded_laplacian(*dense12))
        rng = np.random.default_rng(20 + d)
        vel = np.outer(r.v_f, rng.normal(size=d)) + 1e-3 * rng.normal(size=(r.v_f.size, d))
        reference, estimate = gs.estimate_fiedler(vel)
        expected = [gs.relative_tempo(vel, i, reference) for i in range(r.v_f.size)]
        np.testing.assert_allclose(estimate / estimate[reference], expected, rtol=1e-14, atol=0.0)


class TestIdentifyLeaders:
    def test_recorded_estimate(self):
        result = gs.identify_leaders(RECORDED_ESTIMATE)
        assert result.n_leaders == 3
        assert sorted(i + 1 for i in result.leader_set) == [2, 4, 8]
        assert result.gap_size == pytest.approx(0.3232 - 0.2661, abs=1e-12)

    def test_constructed_gap(self):
        delta = 1e-3
        result = gs.identify_leaders(np.array([0.5, 0.5 + delta, 1.0, 1.0]))
        assert result.n_leaders == 2
        assert result.leader_set == frozenset({0, 1})

    def test_argmax_tie_prefers_fewest_leaders(self):
        result = gs.identify_leaders(np.array([0.0, 1.0, 2.0]))
        assert result.n_leaders == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateEstimateError):
            gs.identify_leaders(np.full(5, 0.7))

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            gs.identify_leaders(np.array([1.0]))

    @settings(max_examples=100)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, c):
        result = gs.identify_leaders(RECORDED_ESTIMATE)
        scaled = gs.identify_leaders(c * RECORDED_ESTIMATE)
        assert scaled.n_leaders == result.n_leaders
        assert scaled.leader_set == result.leader_set

    def test_json_uses_one_based_labels(self):
        payload = gs.identify_leaders(RECORDED_ESTIMATE).to_json()
        assert payload["leaders"] == [2, 4, 8]
        assert payload["n_leaders"] == 3


class TestRunPipeline:
    def test_k3_recovers_single_leader(self, k3):
        g, p = k3
        rng = np.random.default_rng(12)
        result, diag = gs.run_pipeline(
            decompose(g, p), one_d_input(p, 3.0), rng.normal(size=(3, 1))
        )
        assert result.leader_set == frozenset({0})
        assert diag.recovered
        assert diag.angle_to_true <= 1e-4  # measured at dominance <= 1e-6

    def test_dense12_recovers(self, dense12):
        g, p = dense12
        rng = np.random.default_rng(13)
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        result, diag = gs.run_pipeline(decompose(g, p), u, rng.normal(size=(g.n, 2)))
        assert diag.recovered
        assert diag.angle_to_true < 1e-3
        assert diag.measured_dominance is not None
        assert diag.measured_dominance <= 1e-5

    def test_default_records_start_and_measurement_only(self, dense12):
        g, p = dense12
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        x0 = np.random.default_rng(18).normal(size=(g.n, 2))
        _, diag = gs.run_pipeline(decompose(g, p), u, x0)
        np.testing.assert_array_equal(diag.trajectory.times, [0.0, diag.measurement_time])
        assert diag.recovered

    def test_reads_the_given_decomposition(self, dense12, decompositions):
        g, p = dense12
        spect = decompose(g, p)
        decompositions.clear()
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        _, diag = gs.run_pipeline(spect, u, np.random.default_rng(16).normal(size=(g.n, 2)))
        assert diag.recovered
        assert not decompositions

    def test_equilibrium_start_fails_loudly(self, k3):
        g, p = k3
        u = one_d_input(p, 3.0)
        spect = decompose(g, p)
        xstar = gs.steady_state(spect, u)
        with pytest.raises(AllVelocitiesZeroError):
            gs.run_pipeline(spect, u, xstar)

    @pytest.mark.parametrize(
        "dt, t_final, expected",
        [
            (0.01, 1.0, 1.0),  # the horizon caps the certified time (5.24)
            (0.3, 1.0, 0.9),  # dt = 0.3 leaves the last recorded time short of t_final
            (0.77, 20.0, 5.39),  # the grid misses the certified time; 7 * 0.77 is nearest
        ],
    )
    def test_measures_on_the_recorded_grid(self, dense12, dt, t_final, expected):
        g, p = dense12
        spect = decompose(g, p)
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        x0 = np.random.default_rng(15).normal(size=(g.n, 2))
        cfg = gs.SimConfig(dimension=2, dt=dt, t_final=t_final, integrator="exact")
        # a row before the certified time is measured as recorded, and said so
        early = expected < gs.choose_measurement_time(spect.spectrum)[0]
        message = f"near the certified t=5.23838: measuring at t={expected:g}, predicted dominance"
        with pytest.warns(MeasurementTimeCappedWarning, match=message) if early else nullcontext():
            _, diag = gs.run_pipeline(spect, u, x0, cfg)
        assert diag.measurement_time == pytest.approx(expected)
        gap = spect.spectrum[1] - spect.spectrum[0]
        # both dominance numbers are taken at the time actually measured
        assert diag.predicted_dominance == np.exp(-gap * diag.measurement_time)

    def test_estimator_consistency_in_time(self):
        # angle to the true vector is non-increasing across the certified
        # regime; 50 seeded instances
        from conftest import certified_instances

        ss = np.random.SeedSequence(90)
        instances = certified_instances(50, seed=91)
        for (g, p), child in zip(instances, ss.spawn(50)):
            rng = np.random.default_rng(child)
            u = gs.ExternalInput(
                dimension=2,
                values={l: tuple(rng.uniform(10, 50, 2)) for l in p.leaders},
            )
            x0 = rng.normal(size=(g.n, 2))
            spect = gs.fiedler_pair(gs.grounded_laplacian(g, p))
            t_meas, _ = gs.choose_measurement_time(spect.spectrum)
            cfg = gs.SimConfig(
                dimension=2, dt=t_meas / 64, t_final=t_meas, integrator="exact"
            )
            traj = gs.simulate(spect, u, x0, cfg)
            angles = []
            for idx in range(16, len(traj.times), 8):
                _, est = gs.estimate_fiedler(traj.velocities[idx])
                angles.append(gs.vector_angle(est, spect.v_f))
            assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
