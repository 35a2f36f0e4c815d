"""Leader-identifiability certificate for a graph with a known partition.

In densely connected follower subgraphs the Fiedler vector of the grounded
Laplacian approaches a simple profile: 1 on followers and
deg/(deg + 1 - lambda_F) on leaders. One separation test, the follower/leader
gap against the within-leader spread, is applied to that profile and to the
computed Fiedler vector. On the profile it gives the margin epsilon_d; the
certificate holds when the vector stays within epsilon_d/4 of the profile and
its own leader entries separate from its follower entries, which is exactly
what the sorted-gap detector needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import IsolatedLeaderError
from .graphs import (
    Graph,
    Partition,
    grounded_laplacian,
    is_connected,
    leaders_nonadjacent,
    min_follower_degree,
)
from .spectral import SpectralResult, fiedler_pair


def limiting_leader_entry(degree: int, lambda_f: float) -> float:
    """Limiting Fiedler-vector entry of a leader with the given degree.

    Equals degree / (degree + 1 - lambda_f): strictly increasing in degree
    and confined to (0, 1) for lambda_f in (0, 1).
    """
    if degree < 1:
        raise IsolatedLeaderError("leader degree must be >= 1")
    return degree / (degree + 1.0 - lambda_f)


def limiting_fiedler_vector(g: Graph, p: Partition, lambda_f: float) -> np.ndarray:
    """Densification limit of the Fiedler vector, read-only: 1 on followers,
    degree-dependent entries on leaders."""
    entries = np.ones(g.n)
    for j in p.leaders:
        entries[j] = limiting_leader_entry(g.degree(j), lambda_f)
    entries.flags.writeable = False
    return entries


def scale_optimal_distance(v_f: np.ndarray, target: np.ndarray) -> float:
    """Euclidean distance from the best positive rescaling of v_f to target.

    The optimal scale has the closed form <target, v>/<v, v>; the distance
    is therefore invariant to any positive rescaling of v_f.
    """
    t = np.asarray(target, dtype=float)
    v = np.asarray(v_f, dtype=float)
    c = float(np.dot(t, v) / np.dot(v, v))
    return float(np.linalg.norm(t - c * v))


def separation_quantities(v_f: np.ndarray, p: Partition) -> tuple[float, float]:
    """(min follower entry - max leader entry, max-over-leaders nearest-other-leader distance).

    The second quantity is 0 when only one leader exists.
    """
    v = np.asarray(v_f, dtype=float)
    leaders = v[list(p.leaders)]
    gap = float(v[list(p.followers)].min() - leaders.max())
    if leaders.size == 1:
        return gap, 0.0
    dist = np.abs(leaders[:, None] - leaders[None, :])
    np.fill_diagonal(dist, np.inf)
    return gap, float(dist.min(axis=1).max())


@dataclass(frozen=True)
class IdentifiabilityReport:
    """All certificate inputs plus the combined verdict.

    ``epsilon_d`` is the limiting profile's follower/leader gap, 1 minus the
    largest limiting leader entry, and ``epsilon_d_nearest`` subtracts the
    profile's within-leader spread from it. ``separated`` is the combined
    certificate: all four conditions hold and the follower/leader gap in the
    computed Fiedler vector (``separation_lhs``) exceeds its within-leader
    spread (``separation_rhs_nearest``). ``spectral`` is the decomposition
    the report was computed from, for later layers to reuse; it is left out
    of comparisons, repr and ``to_json``.
    """

    connected: bool
    leaders_nonadjacent: bool
    lambda_f: float
    epsilon_d: float
    epsilon_d_nearest: float
    epsilon: float
    condition_iii_holds: bool  # epsilon_d > 0
    condition_iv_holds: bool  # epsilon < epsilon_d / 4
    separation_lhs: float
    separation_rhs_nearest: float
    separated: bool
    min_follower_degree: int
    spectral: SpectralResult = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "lambda_F" if f.name == "lambda_f" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.compare
        }


def check_identifiability(g: Graph, p: Partition) -> IdentifiabilityReport:
    """Evaluate every certificate condition on the computed Fiedler pair.

    Condition (iv) is operationalized as epsilon < epsilon_d / 4 where
    epsilon is the scale-optimal distance between the Fiedler vector and its
    densification limit; the minimum follower degree is reported as a
    diagnostic but not thresholded on its own. Spectral errors (e.g. a
    disconnected graph) propagate to the caller.
    """
    connected = is_connected(g)
    nonadjacent = leaders_nonadjacent(g, p)
    result = fiedler_pair(grounded_laplacian(g, p))
    lam = result.lambda_f

    limit = limiting_fiedler_vector(g, p, lam)
    eps_d, spread = separation_quantities(limit, p)
    eps = scale_optimal_distance(result.v_f, limit)
    lhs, rhs_nearest = separation_quantities(result.v_f, p)

    condition_iii = eps_d > 0.0
    condition_iv = eps < eps_d / 4.0
    separated = (
        connected
        and nonadjacent
        and condition_iii
        and condition_iv
        and lhs > rhs_nearest
    )
    return IdentifiabilityReport(
        connected=connected,
        leaders_nonadjacent=nonadjacent,
        lambda_f=lam,
        epsilon_d=eps_d,
        epsilon_d_nearest=eps_d - spread,
        epsilon=eps,
        condition_iii_holds=condition_iii,
        condition_iv_holds=condition_iv,
        separation_lhs=lhs,
        separation_rhs_nearest=rhs_nearest,
        separated=separated,
        min_follower_degree=min_follower_degree(g, p),
        spectral=result,
    )
