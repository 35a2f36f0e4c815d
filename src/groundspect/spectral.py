"""Grounded-Laplacian spectral analysis.

Every command path decomposes with LAPACK on one BLAS thread, so that
``pipeline --jobs`` workers do not contend for the cores. The workers fork with
a count of 1, and the pin never calls a setter that would start OpenBLAS's
thread server: it would give each fresh worker a second OS thread that burns CPU.
In one process, one and two threads are within about 30% at n = 23-400.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import FiedlerOutOfRangeError, SignIndefiniteError, SingularScalingError
from .graphs import Graph, GroundedLaplacian, Partition

# Mixed-sign tolerance for the positive orientation of the Fiedler vector.
_SIGN_TOL = 1e-9
# Thread-count C symbols: the prefixed OpenBLAS builds that numpy's and other
# binary wheels bundle (64- and 32-bit integers), the unprefixed 64-bit build
# of numpy 1.22-1.26 wheels, and a system OpenBLAS.
_THREAD_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_", "openblas_{}_num_threads",
)


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        handles = [ctypes.CDLL(lib) for lib in libs]
    except OSError:  # no /proc (not Linux), or a library that cannot be opened
        return []
    return [
        (getattr(handle, name.format("get")), getattr(handle, name.format("set")))
        for handle in handles
        for name in _THREAD_SYMBOLS
        if hasattr(handle, name.format("get"))
    ]


# Looked up once: reading the process map costs more than a small decomposition;
# numpy has mapped the OpenBLAS its LAPACK runs on by the time it is imported.
_OPENBLAS = _openblas_thread_controls()
# Reentrant, so a child forked by the pin's holding thread can pin again.
_OPENBLAS_LOCK = threading.RLock()


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread, setting only the libraries above
    one (a setter call starts a thread server), and restore their counts after."""
    with _OPENBLAS_LOCK:
        pinned = [(set_threads, count) for get, set_threads in _OPENBLAS if (count := get()) != 1]
        for set_threads, _ in pinned:
            set_threads(1)
        try:
            yield
        finally:
            for set_threads, count in pinned:
                set_threads(count)


@dataclass(frozen=True)
class SpectralResult:
    """Eigendecomposition of a grounded Laplacian, read by every later layer:
    the smallest eigenpair oriented positive, the ascending spectrum with its
    orthonormal eigenvectors as columns, and the decomposed matrix."""

    lambda_f: float
    v_f: np.ndarray
    spectrum: np.ndarray
    vectors: np.ndarray
    grounded: GroundedLaplacian

    def to_json(self) -> dict:
        return {
            "lambda_F": self.lambda_f,
            "v_F": [float(x) for x in self.v_f],
            "spectrum": [float(x) for x in self.spectrum],
        }


def fiedler_pair(grounded: GroundedLaplacian) -> SpectralResult:
    """Decompose the grounded Laplacian; orient its smallest eigenpair all-positive.

    The eigenvector is normalized to unit Euclidean norm and sign-flipped so
    its largest-magnitude entry is positive. Raises FiedlerOutOfRangeError
    when the smallest eigenvalue leaves (0, 1) — the symptom of a
    disconnected graph — and SignIndefiniteError when entries of both signs
    survive orientation, the symptom of eigenvalue multiplicity.
    """
    with _one_blas_thread():
        w, vecs = np.linalg.eigh(grounded.matrix)
    lam = float(w[0])
    (v,) = _unit_positive(vecs[:, :1].T)
    if lam <= 1e-12 or lam >= 1.0:
        raise FiedlerOutOfRangeError(
            f"smallest eigenvalue {lam:.6g} outside (0,1); graph disconnected "
            "or partition invalid"
        )
    if v.min() < -_SIGN_TOL:
        raise SignIndefiniteError(
            f"Fiedler vector has mixed signs (min entry {v.min():.3e})"
        )
    for array in (v, w, vecs):
        array.flags.writeable = False
    return SpectralResult(lambda_f=lam, v_f=v, spectrum=w, vectors=vecs, grounded=grounded)


def _unit_positive(v: np.ndarray) -> np.ndarray:
    """Each row of v (T, n) scaled to unit norm, its largest-magnitude entry made positive."""
    v = np.ascontiguousarray(v)  # each norm a stride-1 ddot, as np.linalg.norm takes it
    u = v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
    peak = u[np.arange(len(u)), np.abs(u).argmax(axis=1)]
    return np.where(peak[:, None] < 0.0, -u, u)


@dataclass(frozen=True)
class SemiNormalizedAdjacency:
    """Adjacency matrix row-scaled by (degree + leader indicator - lambda_F)."""

    matrix: np.ndarray
    scaling: np.ndarray  # diagonal entries of the scaling matrix


def semi_normalized_adjacency(
    g: Graph, p: Partition, lambda_f: float
) -> SemiNormalizedAdjacency:
    """Row-rescaled adjacency whose Perron eigenvalue is 1 at the true lambda_F."""
    a = g.adjacency
    deg = a.sum(axis=1)
    scaling = deg + p.leader_indicator() - lambda_f
    if scaling.min() <= 0.0:
        bad = int(scaling.argmin())
        raise SingularScalingError(
            f"non-positive scaling {scaling[bad]:.6g} at node {bad} "
            f"(lambda_F={lambda_f:.6g})"
        )
    matrix = a / scaling[:, None]
    matrix.flags.writeable = False
    scaling.flags.writeable = False
    return SemiNormalizedAdjacency(matrix=matrix, scaling=scaling)


@dataclass(frozen=True)
class PerronReport:
    """Numerical check that the scaled adjacency has a simple unit Perron root."""

    spectral_radius: float
    radius_error: float  # |rho - 1|
    alignment_error: float  # 1 - |cos angle(A_hat v, v)|
    spectral_gap: float  # largest minus second-largest eigenvalue

    def to_json(self) -> dict:
        return asdict(self)


def verify_perron(adj: SemiNormalizedAdjacency, v_f: np.ndarray) -> PerronReport:
    """Measure how far the scaled adjacency is from (rho, v) = (1, v_F).

    The spectrum is taken from the symmetric similarity transform
    D^{1/2} A_hat D^{-1/2}, which shares eigenvalues with A_hat and lets a
    symmetric eigenvalue solver run. The report only carries numbers;
    thresholds belong to the caller.
    """
    root = np.sqrt(adj.scaling)
    sym = adj.matrix * (root[:, None] / root[None, :])
    with _one_blas_thread():
        w = np.linalg.eigvalsh(sym)
    rho = float(w[-1])
    gap = float(w[-1] - w[-2]) if w.size >= 2 else float("inf")
    image = adj.matrix @ v_f
    denom = np.linalg.norm(image) * np.linalg.norm(v_f)
    cosine = 0.0 if denom == 0.0 else min(abs(float(np.dot(image, v_f) / denom)), 1.0)
    return PerronReport(
        spectral_radius=rho,
        radius_error=abs(rho - 1.0),
        alignment_error=1.0 - cosine,
        spectral_gap=gap,
    )
