"""Independent reference eigensolver that the tests compare LAPACK against.

``eig_symmetric`` is a cyclic Jacobi solver. Every sweep visits all index
pairs once, organized round-robin so each round rotates a set of disjoint
pairs. Rotations within a round commute, so they compose into a single
orthogonal update applied with two matrix products. Convergence is quadratic
once the off-diagonal mass is small; the sweep cap is a hard failure, not a
silent degradation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from groundspect.errors import GroundspectError

# Relative off-diagonal size at which a matrix counts as diagonalized.
_OFF_DIAG_TOL = 1e-14


class NotSymmetricError(GroundspectError):
    """Input matrix is not symmetric within tolerance."""


class NoConvergenceError(GroundspectError):
    """The rotation eigensolver did not converge within the sweep cap."""


@lru_cache(maxsize=None)
def _rotation_rounds(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Round-robin tournament schedule over index pairs of range(n).

    Returns n-1 (n even) or n (n odd) rounds; the pairs within one round are
    pairwise disjoint and every unordered pair appears in exactly one round.
    """
    players: list[int | None] = list(range(n)) + ([None] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a is not None and b is not None:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(tuple(pairs))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return tuple(rounds)


def eig_symmetric(m: np.ndarray, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    The input must be symmetric within 1e-12 relative asymmetry; the residual
    ``max |m q - lambda q|`` is below 1e-10 * max|m| per pair.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    amax = float(np.abs(a).max()) if n else 0.0
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-12 * max(amax, 1e-300):
        raise NotSymmetricError(f"relative asymmetry {asym / max(amax, 1e-300):.2e} > 1e-12")
    if n == 1:
        return a[0].copy(), np.eye(1)
    if amax == 0.0:
        return np.zeros(n), np.eye(n)

    a = 0.5 * (a + a.T)
    v = np.eye(n)
    tol = _OFF_DIAG_TOL * amax
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        if np.abs(a[off_mask]).max() <= tol:
            break
        for pairs in _rotation_rounds(n):
            pp = np.fromiter((p for p, _ in pairs), dtype=int)
            qq = np.fromiter((q for _, q in pairs), dtype=int)
            apq = a[pp, qq]
            active = np.abs(apq) > 0.01 * tol
            if not active.any():
                continue
            pp, qq, apq = pp[active], qq[active], apq[active]
            tau = (a[qq, qq] - a[pp, pp]) / (2.0 * apq)
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            t[tau == 0.0] = 1.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.eye(n)
            rot[pp, pp] = c
            rot[qq, qq] = c
            rot[pp, qq] = s
            rot[qq, pp] = -s
            a = rot.T @ a @ rot
            v = v @ rot
        a = 0.5 * (a + a.T)
    else:
        raise NoConvergenceError(f"off-diagonal not annihilated in {max_sweeps} sweeps")

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order])
