"""Eigensolver accuracy and the Perron property of the scaled adjacency."""

import ctypes
import multiprocessing
import os
import threading

import numpy as np
import pytest

import groundspect as gs
from groundspect import spectral
from groundspect.errors import FiedlerOutOfRangeError, SingularScalingError

from conftest import GOLDEN, K3_LAMBDA, P2_LAMBDA
from jacobi import NoConvergenceError, NotSymmetricError, eig_symmetric


class TestEigSymmetric:
    def test_identity(self):
        w, v = eig_symmetric(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)

    def test_p2_grounded_closed_form(self):
        w, _ = eig_symmetric(np.array([[2.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(w, [P2_LAMBDA, (3 + np.sqrt(5)) / 2], atol=1e-13)

    def test_diagonal_sorted(self):
        w, v = eig_symmetric(np.diag([5.0, 2.0, 9.0]))
        np.testing.assert_allclose(w, [2.0, 5.0, 9.0])
        # eigenvectors are (signed) unit basis vectors
        assert np.abs(np.abs(v).sum(axis=0) - 1.0).max() < 1e-14

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            eig_symmetric(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(NotSymmetricError):
            eig_symmetric(np.ones((2, 3)))

    def test_residual_and_orthogonality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 41))
            m = rng.normal(size=(n, n))
            m = m + m.T
            w, v = eig_symmetric(m)
            scale = np.abs(m).max()
            assert np.abs(m @ v - v * w).max() <= 1e-10 * scale
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
            assert (np.diff(w) >= 0).all()

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 35))
            m = rng.normal(size=(n, n))
            m = m + m.T
            w, _ = eig_symmetric(m)
            np.testing.assert_allclose(
                w, np.linalg.eigvalsh(m), atol=1e-11 * max(1.0, np.abs(m).max())
            )

    def test_repeated_eigenvalues(self):
        m = np.diag([2.0, 2.0, 2.0, 5.0])
        w, v = eig_symmetric(m)
        np.testing.assert_allclose(w, [2.0, 2.0, 2.0, 5.0])
        assert np.abs(m @ v - v * w).max() < 1e-12

    def test_sweep_cap_enforced(self):
        m = np.array([[2.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NoConvergenceError):
            eig_symmetric(m, max_sweeps=0)


class TestFiedlerPair:
    def test_p2_closed_form(self, p2):
        r = gs.fiedler_pair(gs.grounded_laplacian(*p2))
        assert abs(r.lambda_f - P2_LAMBDA) < 1e-12
        # follower entry exceeds leader entry by the golden ratio
        assert abs(r.v_f[1] / r.v_f[0] - GOLDEN) < 1e-12
        assert abs(np.linalg.norm(r.v_f) - 1.0) < 1e-12

    def test_k3_closed_form(self, k3):
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        assert abs(r.lambda_f - K3_LAMBDA) < 1e-12
        expected = np.array([np.sqrt(3) - 1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            r.v_f, expected / np.linalg.norm(expected), atol=1e-12
        )

    def test_k3_automorphism_equalizes_followers(self, k3):
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        assert abs(r.v_f[1] - r.v_f[2]) < 1e-12

    def test_disconnected_leaderless_component(self):
        g = gs.build_graph(4, [(0, 1), (2, 3)])
        p = gs.make_partition(4, [0])
        with pytest.raises(FiedlerOutOfRangeError):
            gs.fiedler_pair(gs.grounded_laplacian(g, p))

    def test_mixed_sign_smallest_eigenvector_rejected(self):
        # defensive path: a symmetric matrix whose smallest eigenvector has
        # genuinely mixed signs cannot be a grounded Laplacian of a
        # connected graph, and must be refused rather than sign-fixed
        from groundspect.errors import SignIndefiniteError
        from groundspect.graphs import GroundedLaplacian

        basis = np.array(
            [
                [1.0, -1.0, 0.0],
                [1.0, 1.0, -1.0],
                [0.5, 0.5, 1.0],
            ]
        ).T
        q, _ = np.linalg.qr(basis)
        m = q @ np.diag([0.5, 2.0, 3.0]) @ q.T
        fake = GroundedLaplacian(matrix=m, partition=gs.make_partition(3, [0]))
        with pytest.raises(SignIndefiniteError):
            gs.fiedler_pair(fake)

    def test_spectrum_is_full_and_sorted(self, k3):
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        assert r.spectrum.shape == (3,)
        assert r.spectrum[0] == r.lambda_f
        assert (np.diff(r.spectrum) >= 0).all()

    def test_json_keys(self, p2):
        payload = gs.fiedler_pair(gs.grounded_laplacian(*p2)).to_json()
        assert set(payload) == {"lambda_F", "v_F", "spectrum"}
        assert len(payload["v_F"]) == 2


def openblas_thread_counts() -> list:
    """get_num_threads of every OpenBLAS mapped into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    getters = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getters.append(getattr(handle, sym))
                break
    return getters


def mapped_openblas_getters() -> list:
    """openblas_thread_counts(), or none where the process map cannot be read."""
    try:
        return openblas_thread_counts()
    except OSError:
        return []


class TestOneBlasThread:
    def test_every_mapped_openblas_is_controlled(self):
        # numpy 1.22-1.26 wheels export only the unprefixed 64_-suffixed names
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                mapped = any("openblas" in line for line in fh)
        except OSError:
            mapped = False
        if not mapped:
            pytest.skip("no OpenBLAS mapped into the process")
        assert spectral._OPENBLAS
        assert all(get() >= 1 for get, _ in spectral._OPENBLAS)

    def test_lapack_sees_one_thread_and_caller_count_is_restored(self, monkeypatch, k3):
        try:
            getters = openblas_thread_counts()
        except OSError:
            getters = []
        if not getters:
            pytest.skip("no OpenBLAS mapped into the process")
        seen = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                seen.append([get() for get in getters])
                return fn(*args, **kwargs)

            return wrapper

        before = [get() for get in getters]
        monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        gs.verify_perron(gs.semi_normalized_adjacency(*k3, r.lambda_f), r.v_f)
        assert seen == [[1] * len(getters)] * 2
        assert [get() for get in getters] == before

    @staticmethod
    def fake_openblas(monkeypatch, *counts) -> list:
        """Stand fake (get, set) pairs at these counts in for the mapped
        libraries; return the log of (library index, count) setter calls."""
        calls = []

        def library(index, count):
            state = [count]

            def set_threads(k):
                calls.append((index, k))
                state[0] = k

            return (lambda: state[0]), set_threads

        monkeypatch.setattr(spectral, "_OPENBLAS", [library(i, c) for i, c in enumerate(counts)])
        return calls

    def test_only_libraries_above_one_thread_are_set_and_restored(self, monkeypatch):
        calls = self.fake_openblas(monkeypatch, 1, 2)
        with spectral._one_blas_thread():
            assert [get() for get, _ in spectral._OPENBLAS] == [1, 1]
        assert calls == [(1, 1), (1, 2)]  # library 0, already at 1, is never set
        assert [get() for get, _ in spectral._OPENBLAS] == [1, 2]

    def test_nested_pin_in_one_thread_returns(self, monkeypatch):
        calls = self.fake_openblas(monkeypatch, 2)
        # a fresh lock, so a pin stuck waiting on it holds nothing later tests take
        monkeypatch.setattr(spectral, "_OPENBLAS_LOCK", type(spectral._OPENBLAS_LOCK)())

        def nested():
            with spectral._one_blas_thread(), spectral._one_blas_thread():
                pass

        thread = threading.Thread(target=nested, daemon=True)
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "a nested pin waited on its own lock"
        assert calls == [(0, 1), (0, 2)]

    def test_child_forked_inside_the_pin_decomposes_on_one_thread(self, k3):
        getters = mapped_openblas_getters()
        if not getters or not os.path.isdir("/proc/self/task"):
            pytest.skip("no OpenBLAS mapped into the process, or no /proc")
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            gs.fiedler_pair(gs.grounded_laplacian(*k3))
            send.send((len(os.listdir("/proc/self/task")), [get() for get in getters]))

        with receive, send:
            with spectral._one_blas_thread():
                proc = ctx.Process(target=child)
                proc.start()
                done = receive.poll(30)
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            assert done, "the forked child never finished fiedler_pair"
            assert receive.recv() == (1, [1] * len(getters))
            assert proc.exitcode == 0


class TestSemiNormalizedAdjacency:
    def test_p2_entries(self, p2):
        lam = P2_LAMBDA
        adj = gs.semi_normalized_adjacency(*p2, lam)
        np.testing.assert_allclose(
            adj.matrix,
            [[0.0, 1.0 / (2.0 - lam)], [1.0 / (1.0 - lam), 0.0]],
            atol=1e-15,
        )

    def test_k3_row_scales(self, k3):
        lam = K3_LAMBDA
        adj = gs.semi_normalized_adjacency(*k3, lam)
        np.testing.assert_allclose(adj.scaling, [3.0 - lam, 2.0 - lam, 2.0 - lam])
        np.testing.assert_allclose(
            adj.matrix.sum(axis=1), [2 / (3 - lam), 2 / (2 - lam), 2 / (2 - lam)]
        )

    def test_zero_shift_is_degenerate_but_valid(self, k3):
        adj = gs.semi_normalized_adjacency(*k3, 0.0)
        assert (adj.scaling > 0).all()
        assert (np.diag(adj.matrix) == 0).all()
        assert (adj.matrix >= 0).all()

    def test_singular_scaling_rejected(self, p2):
        # follower of degree 1 with lambda >= 1 makes its scaling <= 0
        with pytest.raises(SingularScalingError):
            gs.semi_normalized_adjacency(*p2, 1.2)


class TestVerifyPerron:
    def test_p2(self, p2):
        r = gs.fiedler_pair(gs.grounded_laplacian(*p2))
        report = gs.verify_perron(
            gs.semi_normalized_adjacency(*p2, r.lambda_f), r.v_f
        )
        assert report.radius_error <= 1e-9

    def test_k3_alignment(self, k3):
        r = gs.fiedler_pair(gs.grounded_laplacian(*k3))
        report = gs.verify_perron(
            gs.semi_normalized_adjacency(*k3, r.lambda_f), r.v_f
        )
        assert report.alignment_error <= 1e-9

    def test_random_graph_gap_positive(self):
        rng = np.random.default_rng(8)
        g, p = gs.random_connected_graph(8, 2, rng)
        r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        report = gs.verify_perron(
            gs.semi_normalized_adjacency(g, p, r.lambda_f), r.v_f
        )
        assert report.spectral_gap > 0.0

    @pytest.mark.parametrize(
        "d_lambda, d_entry, error",
        [(1e-6, 0.0, "radius_error"), (0.0, 1e-3, "alignment_error")],
        ids=["lambda_F", "v_F"],
    )
    def test_perturbed_pair_detected(self, dense12, d_lambda, d_entry, error):
        # negative control: the check reads 0 on the exact pair and exceeds its
        # 1e-9 threshold on a pair perturbed in lambda_F or in one v_F entry
        g, p = dense12
        r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
        exact = gs.verify_perron(gs.semi_normalized_adjacency(g, p, r.lambda_f), r.v_f)
        v = r.v_f.copy()
        v[0] += d_entry
        perturbed = gs.verify_perron(gs.semi_normalized_adjacency(g, p, r.lambda_f + d_lambda), v)
        assert getattr(exact, error) <= 1e-9 < getattr(perturbed, error)


class TestEnsembleInvariants:
    """Smallest-pair consistency and eigen-residuals over the shared ensemble."""

    def test_fiedler_matches_jacobi_reference(self, ensemble):
        # LAPACK against the independent Jacobi reference
        for g, p in ensemble:
            L = gs.grounded_laplacian(g, p)
            r = gs.fiedler_pair(L)
            w, vecs = eig_symmetric(L.matrix)
            assert abs(r.lambda_f - w[0]) <= 1e-9
            assert np.abs(r.spectrum - w).max() <= 1e-9
            v = vecs[:, 0]
            v = v if v[np.abs(v).argmax()] > 0 else -v
            assert np.abs(r.v_f - v / np.linalg.norm(v)).max() <= 1e-9

    def test_fiedler_matches_lapack(self, ensemble):
        # the values-only LAPACK driver agrees with the full decomposition
        for g, p in ensemble[:60]:
            L = gs.grounded_laplacian(g, p)
            r = gs.fiedler_pair(L)
            w = np.linalg.eigvalsh(L.matrix)
            assert abs(r.lambda_f - w[0]) <= 1e-9

    def test_eigen_residual(self, ensemble):
        for g, p in ensemble[:60]:
            L = gs.grounded_laplacian(g, p).matrix
            r = gs.fiedler_pair(gs.grounded_laplacian(g, p))
            norm = np.abs(L).sum(axis=1).max()
            assert np.abs(L @ r.v_f - r.lambda_f * r.v_f).max() <= 1e-10 * norm
