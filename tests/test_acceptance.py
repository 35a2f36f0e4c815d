"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred.
"""

import time

import numpy as np
import pytest

import groundspect as gs

from conftest import GOLDEN, K3_LAMBDA, P2_LAMBDA, certified_instances, decompose

# Frozen 10-agent estimate from a recorded 2-D identification run; the true
# leader set is {2, 4, 8} in 1-based labels. The margin values recorded with
# it were epsilon_d = 0.2 and epsilon = 0.0459 < epsilon_d / 4; the source
# topology is not available, so the vector and margins are fixtures, not
# recomputable quantities.
RECORDED_ESTIMATE = np.array(
    [0.3376, 0.2661, 0.3276, 0.2649, 0.3232,
     0.3277, 0.3501, 0.2638, 0.3420, 0.3417]
)
RECORDED_LEADERS_1BASED = [2, 4, 8]
RECORDED_EPSILON_D = 0.2
RECORDED_EPSILON = 0.0459


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} ({label}): {status} [{detail}]")
    assert ok, f"criterion {number} {label}: {detail}"


@pytest.fixture(scope="module")
def ensemble_results(ensemble):
    """Fiedler pair per ensemble graph, computed once for criteria 2/3/5."""
    return [(g, p, gs.fiedler_pair(gs.grounded_laplacian(g, p))) for g, p in ensemble]


def test_criterion_1_recorded_fixture_identification():
    gs.identify_leaders(RECORDED_ESTIMATE)  # warm-up outside the timed call
    t0 = time.perf_counter()
    result = gs.identify_leaders(RECORDED_ESTIMATE)
    elapsed = time.perf_counter() - t0
    labels = sorted(i + 1 for i in result.leader_set)
    ok = (
        result.n_leaders == 3
        and labels == RECORDED_LEADERS_1BASED
        and elapsed < 1e-3
    )
    # documented fixture margins satisfy the certificate inequality
    ok = ok and RECORDED_EPSILON < RECORDED_EPSILON_D / 4.0
    report(
        1,
        "recorded-fixture identification",
        ok,
        f"n={result.n_leaders} leaders={labels} runtime={1e6 * elapsed:.0f}us",
    )


def test_criterion_2_perron_property_suite(ensemble):
    t0 = time.perf_counter()
    worst_radius = worst_evec = 0.0
    min_gap = float("inf")
    for g, p in ensemble:
        result = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        adj = gs.semi_normalized_adjacency(g, p, result.lambda_f)
        perron = gs.verify_perron(adj, result.v_f)
        worst_radius = max(worst_radius, perron.radius_error)
        worst_evec = max(worst_evec, float(np.abs(adj.matrix @ result.v_f - result.v_f).max()))
        min_gap = min(min_gap, perron.spectral_gap)
    elapsed = time.perf_counter() - t0
    ok = worst_radius <= 1e-8 and worst_evec <= 1e-8 and min_gap > 0.0 and elapsed < 10.0
    report(
        2,
        "Perron property suite",
        ok,
        f"200 graphs, |rho-1|<={worst_radius:.2e}, |Av-v|<={worst_evec:.2e}, "
        f"gap>={min_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_fiedler_value_range(ensemble_results):
    lambdas = [r.lambda_f for _, _, r in ensemble_results]
    entries_positive = all((r.v_f > 0).all() for _, _, r in ensemble_results)
    ok = all(0.0 < lam < 1.0 for lam in lambdas) and entries_positive
    report(
        3,
        "Fiedler value range",
        ok,
        f"200 graphs, lambda_F in [{min(lambdas):.4f}, {max(lambdas):.4f}], "
        f"all entries positive={entries_positive}",
    )


def test_criterion_4_densification_convergence_trend():
    t0 = time.perf_counter()
    degree_menu = [(2, 2), (2, 3), (3, 3)]
    firsts, finals = [], []
    for k in range(20):
        cfg = gs.SequenceConfig(
            leader_degrees=degree_menu[k % 3],
            initial_followers=24,
            steps=20,
            rng_seed=400 + k,
        )
        seq = gs.generate_sequence(cfg)
        assert gs.min_follower_degree(*seq.elements[-1]) >= 20
        eps = []
        for g, p in (seq.elements[0], seq.elements[-1]):
            r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
            vbar = gs.limiting_fiedler_vector(g, p, r.lambda_f)
            eps.append(gs.scale_optimal_distance(r.v_f, vbar))
        firsts.append(eps[0])
        finals.append(eps[1])
    elapsed = time.perf_counter() - t0
    ok = (
        all(f < 0.05 for f in finals)
        and all(f < s for f, s in zip(finals, firsts))
        and elapsed < 30.0
    )
    report(
        4,
        "densification convergence trend",
        ok,
        f"20 sequences, final eps<= {max(finals):.4f} (first >= {min(firsts):.4f}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_separation_implies_gap_detection(ensemble_results):
    separated = failures = 0
    for g, p, result in ensemble_results:
        rep = gs.check_identifiability(g, p)
        if not rep.separated:
            continue
        separated += 1
        detected = gs.identify_leaders(result.v_f).leader_set
        if detected != frozenset(p.leaders):
            failures += 1
    ok = failures == 0 and separated > 0
    report(
        5,
        "separation implies exact gap detection",
        ok,
        f"{separated} separated instances, {failures} detection failures",
    )


def test_criterion_6_end_to_end_identification():
    t0 = time.perf_counter()
    instances = certified_instances(50, seed=60)
    ss = np.random.SeedSequence(61)
    recovered = 0
    worst_angle = 0.0
    for (g, p), child in zip(instances, ss.spawn(50)):
        rng = np.random.default_rng(child)
        u = gs.ExternalInput(
            dimension=2,
            values={l: tuple(rng.uniform(10.0, 50.0, size=2)) for l in p.leaders},
        )
        x0 = rng.normal(size=(g.n, 2))
        _, diag = gs.run_pipeline(decompose(g, p), u, x0)
        recovered += diag.recovered
        worst_angle = max(worst_angle, diag.angle_to_true)
    elapsed = time.perf_counter() - t0
    ok = recovered == 50 and worst_angle <= 1e-3 and elapsed < 60.0
    report(
        6,
        "end-to-end pipeline",
        ok,
        f"recovered {recovered}/50, worst angle {worst_angle:.2e} rad, {elapsed:.2f}s",
    )


def test_criterion_7_integrator_cross_validation():
    worst = 0.0
    pairs = gs.random_ensemble(20, seed=77)
    for k, (g, p) in enumerate(pairs):
        rng = np.random.default_rng(700 + k)
        u = gs.ExternalInput(
            dimension=1, values={l: (float(rng.uniform(-10, 10)),) for l in p.leaders}
        )
        x0 = rng.normal(size=(g.n, 1))
        kw = dict(dimension=1, dt=1e-3, t_final=5.0, record_every=5000)
        spect = decompose(g, p)
        rk4 = gs.simulate(spect, u, x0, gs.SimConfig(integrator="rk4", **kw))
        exact = gs.simulate(spect, u, x0, gs.SimConfig(integrator="exact", **kw))
        worst = max(worst, float(np.abs(rk4.states[-1] - exact.states[-1]).max()))
    ok = worst <= 1e-8
    report(
        7,
        "integrator cross-validation",
        ok,
        f"20 instances, worst state discrepancy {worst:.2e}",
    )


def test_criterion_8_closed_form_anchors(p2, k3):
    lam_p2 = gs.fiedler_pair(gs.grounded_laplacian(*p2)).lambda_f
    lam_k3 = gs.fiedler_pair(gs.grounded_laplacian(*k3)).lambda_f
    ok_values = abs(lam_p2 - P2_LAMBDA) <= 1e-10 and abs(lam_k3 - K3_LAMBDA) <= 1e-10

    g, p = p2
    u = gs.ExternalInput(dimension=1, values={0: (5.0,)})
    spect = gs.fiedler_pair(gs.grounded_laplacian(g, p))
    t_meas, dominance = gs.choose_measurement_time(spect.spectrum)
    cfg = gs.SimConfig(dimension=1, dt=t_meas / 512, t_final=t_meas, integrator="exact")
    traj = gs.simulate(spect, u, np.zeros((2, 1)), cfg)
    tempo = gs.relative_tempo(gs.measure_velocities(traj, t_meas), 1, 0)
    ok_tempo = dominance <= 1e-6 and abs(tempo - GOLDEN) <= 1e-4

    report(
        8,
        "closed-form anchors",
        ok_values and ok_tempo,
        f"|lambda_P2 - (3-sqrt5)/2|={abs(lam_p2 - P2_LAMBDA):.1e}, "
        f"|lambda_K3 - (2-sqrt3)|={abs(lam_k3 - K3_LAMBDA):.1e}, "
        f"|tempo-golden|={abs(tempo - GOLDEN):.1e}",
    )
