"""Steady states, both integrators, and measurement-time selection."""

import numpy as np
import pytest

import groundspect as gs
from groundspect.errors import (
    MeasurementTimeCappedWarning,
    NonFiniteStateError,
    NonGenericInitialConditionWarning,
    TimeOutOfRangeError,
    UnstableStepError,
)

from conftest import decompose


def one_d_input(p, value):
    return gs.ExternalInput(dimension=1, values={l: (float(value),) for l in p.leaders})


class TestSteadyState:
    def test_p2_consensus_at_input(self, p2):
        x = gs.steady_state(decompose(*p2), one_d_input(p2[1], 5.0))
        np.testing.assert_allclose(x, [[5.0], [5.0]], atol=1e-12)

    def test_single_leader_any_graph_reaches_input(self):
        rng = np.random.default_rng(3)
        g, _ = gs.random_connected_graph(9, 1, rng)
        p = gs.make_partition(9, [4])
        x = gs.steady_state(decompose(g, p), one_d_input(p, -2.5))
        np.testing.assert_allclose(x, np.full((9, 1), -2.5), atol=1e-10)

    def test_zero_input_zero_state(self, k3):
        x = gs.steady_state(decompose(*k3), one_d_input(k3[1], 0.0))
        np.testing.assert_allclose(x, 0.0, atol=1e-14)

    def test_residual(self, dense12):
        g, p = dense12
        u = gs.ExternalInput(
            dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)}
        )
        x = gs.steady_state(decompose(g, p), u)
        l11 = gs.grounded_laplacian(g, p).matrix
        forcing = np.zeros((g.n, 2))
        forcing[0] = (40.0, 35.0)
        forcing[1] = (16.0, 45.0)
        assert np.abs(l11 @ x - forcing).max() < 1e-10

    def test_input_coverage_validated(self, k3):
        g, p = k3
        with pytest.raises(ValueError):
            gs.steady_state(decompose(g, p), gs.ExternalInput(dimension=1, values={1: (1.0,)}))


class TestExternalInput:
    @pytest.mark.parametrize(
        "dimension, values",
        [
            (1, {0: (float("inf"),)}),
            (0, {0: ()}),
            (True, {0: (1.0,)}),
            (2, {0: (1.0,)}),
            (1, {0: ("1.5",)}),
            (1, {0: (True,)}),
        ],
        ids=[
            "inf-entry",
            "zero-dimension",
            "bool-dimension",
            "short-vector",
            "string-entry",
            "bool-entry",
        ],
    )
    def test_rejected_at_construction(self, dimension, values):
        with pytest.raises(ValueError):
            gs.ExternalInput(dimension, values)

    def test_vectors_stored_as_float_tuples(self):
        u = gs.ExternalInput(np.int64(2), {3: np.array([1, 2])})
        assert u.dimension == 2 and type(u.dimension) is int
        assert u.values == {3: (1.0, 2.0)}
        assert all(type(x) is float for x in u.values[3])


class TestSimConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", float("nan")),
            ("t_final", float("nan")),
            ("t_final", float("inf")),
            ("dimension", 1.5),
            ("dimension", True),
            ("record_every", 2.5),
        ],
    )
    def test_rejects_what_simulate_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            gs.SimConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self):
        cfg = gs.SimConfig(dimension=np.int64(2), record_every=np.int32(3))
        assert type(cfg.dimension) is int and type(cfg.record_every) is int


class TestSimulate:
    def test_p2_converges_to_steady_state(self, p2):
        g, p = p2
        u = one_d_input(p, 5.0)
        cfg = gs.SimConfig(dimension=1, dt=0.01, t_final=40.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, np.zeros((2, 1)), cfg)
        np.testing.assert_allclose(traj.states[-1], [[5.0], [5.0]], atol=1e-5)
        assert np.linalg.norm(traj.velocities[-1]) < np.linalg.norm(
            traj.velocities[0]
        )

    def test_equilibrium_start_has_zero_velocities(self, k3):
        g, p = k3
        u = one_d_input(p, 3.0)
        spect = decompose(g, p)
        xstar = gs.steady_state(spect, u)
        cfg = gs.SimConfig(dimension=1, dt=0.01, t_final=1.0, integrator="exact")
        traj = gs.simulate(spect, u, xstar, cfg)
        assert np.abs(traj.velocities).max() == 0.0

    def test_rk4_matches_exact(self, k3):
        g, p = k3
        rng = np.random.default_rng(11)
        u = one_d_input(p, 4.0)
        x0 = rng.normal(size=(3, 1))
        kw = dict(dimension=1, dt=1e-3, t_final=5.0, record_every=100)
        spect = decompose(g, p)
        tr = gs.simulate(spect, u, x0, gs.SimConfig(integrator="rk4", **kw))
        te = gs.simulate(spect, u, x0, gs.SimConfig(integrator="exact", **kw))
        assert np.abs(tr.states - te.states).max() <= 1e-8

    def test_rk4_stability_guard(self, k3):
        g, p = k3
        lam_max = np.linalg.eigvalsh(gs.grounded_laplacian(g, p).matrix)[-1]
        bad_dt = 1.01 * 2.785 / lam_max
        cfg = gs.SimConfig(dimension=1, dt=bad_dt, t_final=10 * bad_dt, integrator="rk4")
        with pytest.raises(UnstableStepError):
            gs.simulate(decompose(g, p), one_d_input(p, 1.0), np.ones((3, 1)), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("integrator", gs.dynamics.INTEGRATORS)
    def test_non_finite_start_raises(self, k3, integrator, bad):
        g, p = k3
        x0 = np.ones((3, 1))
        x0[1, 0] = bad
        cfg = gs.SimConfig(dimension=1, dt=0.01, t_final=0.1, integrator=integrator)
        with pytest.raises(NonFiniteStateError):
            gs.simulate(decompose(g, p), one_d_input(p, 1.0), x0, cfg)

    def test_dimensions_decouple(self, dense12):
        g, p = dense12
        rng = np.random.default_rng(5)
        u2 = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        x0 = rng.normal(size=(g.n, 2))
        cfg2 = gs.SimConfig(dimension=2, dt=0.01, t_final=2.0, integrator="exact")
        spect = decompose(g, p)
        traj2 = gs.simulate(spect, u2, x0, cfg2)
        for dim in range(2):
            u1 = gs.ExternalInput(
                dimension=1, values={l: (u2.values[l][dim],) for l in p.leaders}
            )
            cfg1 = gs.SimConfig(dimension=1, dt=0.01, t_final=2.0, integrator="exact")
            traj1 = gs.simulate(spect, u1, x0[:, dim : dim + 1], cfg1)
            np.testing.assert_allclose(
                traj2.states[..., dim], traj1.states[..., 0], atol=1e-12
            )

    def test_nongeneric_start_warns(self, k3):
        g, p = k3
        u = one_d_input(p, 2.0)
        spect = decompose(g, p)
        xstar = gs.steady_state(spect, u)
        l11 = gs.grounded_laplacian(g, p).matrix
        _, q = np.linalg.eigh(l11)
        x0 = xstar + q[:, 1:2]  # second mode only: no slowest-mode component
        cfg = gs.SimConfig(dimension=1, dt=0.01, t_final=1.0, integrator="exact")
        with pytest.warns(NonGenericInitialConditionWarning):
            gs.simulate(spect, u, x0, cfg)

    def test_velocities_equal_rhs_evaluation(self, dense12):
        # modal velocity storage must agree with -L11 x + f at recorded times
        g, p = dense12
        rng = np.random.default_rng(17)
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        x0 = rng.normal(size=(g.n, 2))
        cfg = gs.SimConfig(dimension=2, dt=0.01, t_final=3.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, x0, cfg)
        l11 = gs.grounded_laplacian(g, p).matrix
        forcing = np.zeros((g.n, 2))
        forcing[0] = (40.0, 35.0)
        forcing[1] = (16.0, 45.0)
        scale = max(1.0, np.abs(forcing).max())
        for idx in range(len(traj.times)):
            rhs = forcing - l11 @ traj.states[idx]
            assert np.abs(traj.velocities[idx] - rhs).max() <= 1e-10 * scale

    def test_exact_velocities_match_rhs_at_n40_d3(self):
        rng = np.random.default_rng(41)
        g, p = gs.dense_follower_instance(37, (2, 3, 4), rng=rng)
        u = gs.ExternalInput(
            dimension=3, values={l: tuple(rng.uniform(-50, 50, 3)) for l in p.leaders}
        )
        spect = decompose(g, p)
        t_meas, _ = gs.choose_measurement_time(spect.spectrum)
        cfg = gs.SimConfig(dimension=3, dt=t_meas / 64, t_final=t_meas, integrator="exact")
        traj = gs.simulate(spect, u, rng.normal(size=(g.n, 3)), cfg)
        assert traj.states.shape == (65, 40, 3)
        forcing = np.zeros((g.n, 3))
        for l in p.leaders:
            forcing[l] = u.values[l]
        tol = 1e-9 * np.abs(traj.velocities).max()
        for x, v in zip(traj.states, traj.velocities):
            assert np.abs(v - (forcing - spect.grounded.matrix @ x)).max() <= tol

    def test_exact_arm_equals_unflushed_formula(self):
        # By t = 760 / lambda_max the fastest modes' coefficients are subnormal;
        # flushing them to 0 must leave every state and velocity bit for bit.
        rng = np.random.default_rng(41)
        g, p = gs.dense_follower_instance(37, (2, 3, 4), rng=rng)
        spect = decompose(g, p)
        w, q = spect.spectrum, spect.vectors
        u = gs.ExternalInput(2, {l: tuple(rng.uniform(-50, 50, 2)) for l in p.leaders})
        x0 = rng.normal(size=(g.n, 2))
        t_final = 760.0 / w[-1]
        cfg = gs.SimConfig(dimension=2, dt=t_final / 64, t_final=t_final, integrator="exact")
        traj = gs.simulate(spect, u, x0, cfg)
        modal = np.exp(-np.outer(traj.times, w))[:, :, None] * (q.T @ (x0 - traj.steady))
        assert ((modal != 0.0) & (np.abs(modal) < np.finfo(float).tiny)).sum() > 100
        states = q @ modal
        states += traj.steady
        assert traj.states.tobytes() == states.tobytes()
        assert traj.velocities.tobytes() == (q @ (modal * -w[:, None])).tobytes()

    def test_mode_decay_formula(self, k3):
        g, p = k3
        rng = np.random.default_rng(23)
        u = one_d_input(p, 3.0)
        x0 = rng.normal(size=(3, 1))
        cfg = gs.SimConfig(dimension=1, dt=0.05, t_final=4.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, x0, cfg)
        # the basis-free matrix function -L exp(-L t)(x0 - x*) is independent
        # of which orthonormal eigenbasis the integrator picked
        w, q = np.linalg.eigh(gs.grounded_laplacian(g, p).matrix)
        offset = q.T @ (x0 - traj.steady)
        for idx, t in enumerate(traj.times):
            expect = -(q * (w * np.exp(-w * t))) @ offset
            np.testing.assert_allclose(
                traj.velocities[idx], expect, atol=1e-10 * max(1.0, np.abs(w).max())
            )

    def test_spectral_contraction_bound(self, ensemble):
        rng = np.random.default_rng(29)
        for g, p in ensemble[:10]:
            u = one_d_input(p, float(rng.uniform(-5, 5)))
            x0 = rng.normal(size=(g.n, 1))
            cfg = gs.SimConfig(dimension=1, dt=0.02, t_final=3.0, integrator="exact")
            spect = decompose(g, p)
            traj = gs.simulate(spect, u, x0, cfg)
            lam_f = spect.spectrum[0]
            lhs = np.linalg.norm(traj.states[-1] - traj.steady)
            rhs = np.exp(-lam_f * 3.0) * np.linalg.norm(x0 - traj.steady) + 1e-8
            assert lhs <= rhs

    def test_late_time_velocity_aligns_with_fiedler(self, p2):
        g, p = p2
        u = one_d_input(p, 5.0)
        cfg = gs.SimConfig(dimension=1, dt=0.01, t_final=12.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), u, np.zeros((2, 1)), cfg)
        v_f = gs.fiedler_pair(gs.grounded_laplacian(g, p)).v_f
        angle_half = gs.vector_angle(traj.velocities[len(traj.times) // 2][:, 0], v_f)
        angle_full = gs.vector_angle(traj.velocities[-1][:, 0], v_f)
        assert angle_full <= angle_half
        assert angle_full < 1e-6


class TestMeasurement:
    def test_zero_at_equilibrium(self, k3):
        g, p = k3
        u = one_d_input(p, 1.0)
        spect = decompose(g, p)
        xstar = gs.steady_state(spect, u)
        cfg = gs.SimConfig(dimension=1, dt=0.1, t_final=1.0, integrator="exact")
        traj = gs.simulate(spect, u, xstar, cfg)
        assert np.abs(gs.measure_velocities(traj, 0.0)).max() == 0.0

    def test_beyond_horizon_rejected(self, k3):
        g, p = k3
        cfg = gs.SimConfig(dimension=1, dt=0.1, t_final=1.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), one_d_input(p, 1.0), np.ones((3, 1)), cfg)
        with pytest.raises(TimeOutOfRangeError):
            gs.measure_velocities(traj, 2.0)

    def test_nearest_snapping(self, k3):
        g, p = k3
        cfg = gs.SimConfig(dimension=1, dt=0.5, t_final=2.0, integrator="exact")
        traj = gs.simulate(decompose(g, p), one_d_input(p, 1.0), np.ones((3, 1)), cfg)
        idx = traj.nearest_index(0.74)
        assert traj.times[idx] == 0.5
        assert traj.nearest_index(0.76) == idx + 1

    def test_dominance_ratio_decays(self, dense12):
        g, p = dense12
        spect = decompose(g, p)
        x0 = np.random.default_rng(31).normal(size=(g.n, 2))
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        # both horizons end before the certified time (5.24)
        with pytest.warns(MeasurementTimeCappedWarning, match="near the certified t=5.23838"):
            dominance = [
                gs.run_pipeline(
                    spect, u, x0, gs.SimConfig(dimension=2, dt=0.05, t_final=t, integrator="exact")
                )[1].measured_dominance
                for t in (1.0, 5.0)
            ]
        assert dominance[1] < dominance[0]

    def test_dominance_same_for_both_integrators(self, dense12):
        g, p = dense12
        spect = decompose(g, p)
        x0 = np.random.default_rng(32).normal(size=(g.n, 2))
        u = gs.ExternalInput(dimension=2, values={0: (40.0, 35.0), 1: (16.0, 45.0)})
        with pytest.warns(MeasurementTimeCappedWarning, match="measuring at t=1,"):
            rk4, exact = (
                gs.run_pipeline(
                    spect, u, x0, gs.SimConfig(dimension=2, dt=0.01, t_final=1.0, integrator=name)
                )[1].measured_dominance
                for name in ("rk4", "exact")
            )
        assert isinstance(rk4, float)
        assert rk4 == exact


class TestMeasurementTime:
    def test_target_met_when_gap_allows(self):
        spectrum = np.array([0.3, 1.5, 4.0])
        t, dom = gs.choose_measurement_time(spectrum)
        assert dom <= 1e-6 + 1e-15
        assert 0.3 * t <= 30.0 + 1e-9
        assert t == pytest.approx(np.log(1e6) / 1.2)

    def test_underflow_cap_wins_for_tiny_gap(self):
        spectrum = np.array([0.5, 0.5 + 1e-9, 2.0])
        with pytest.warns(MeasurementTimeCappedWarning, match="lambda_F=0.5"):
            t, dom = gs.choose_measurement_time(spectrum)
        assert t == pytest.approx(30.0 / 0.5)
        assert dom > 0.9  # degradation is visible, not hidden

    def test_degenerate_gap(self):
        with pytest.warns(MeasurementTimeCappedWarning, match="predicted dominance 1$"):
            t, dom = gs.choose_measurement_time(np.array([0.5, 0.5]))
        assert t == pytest.approx(60.0)
        assert dom == 1.0
