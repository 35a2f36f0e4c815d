"""Leader-identifiability certificate for a graph with a known partition.

In densely connected follower subgraphs the Fiedler vector of the grounded
Laplacian approaches a simple profile: 1 on followers and
deg/(deg + 1 - lambda_F) on leaders. The margin by which the largest leader
entry stays below 1, compared against the distance of the true Fiedler
vector from that profile, certifies that the leader entries separate from
the follower entries — which is exactly what the sorted-gap detector needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def separation_margin(
    g: Graph, p: Partition, lambda_f: float, exclude_self: bool = False
) -> float:
    """Margin 1 - max_j phi(j) - max_j min_k |phi(j) - phi(k)| over leaders.

    phi(j) is the limiting leader entry for leader j's degree. The inner
    minimum ranges over all leaders k including k = j, which zeroes the
    second term; pass exclude_self=True for the nearest-other-leader
    variant (0 when only one leader exists).
    """
    phis = [limiting_leader_entry(g.degree(j), lambda_f) for j in p.leaders]
    return 1.0 - max(phis) - _max_min_pair_distance(np.asarray(phis), exclude_self)


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
    followers = v[list(p.followers)]
    lhs = float(followers.min() - leaders.max())
    rhs = _max_min_pair_distance(leaders, exclude_self=True)
    return lhs, rhs


def _max_min_pair_distance(values: np.ndarray, exclude_self: bool) -> float:
    if not exclude_self or values.size == 1:
        return 0.0
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(axis=1).max())


@dataclass(frozen=True)
class IdentifiabilityReport:
    """All certificate inputs plus the combined verdict.

    ``epsilon_d`` follows the self-inclusive reading of the inner minimum
    (second term always 0) and ``epsilon_d_nearest`` the k != j reading, so
    both are inspectable. ``separated`` is the combined certificate: all four
    conditions hold and the follower/leader gap in the computed Fiedler
    vector (``separation_lhs``) exceeds the within-leader spread
    (``separation_rhs_nearest``, nearest-other-leader reading). ``spectral``
    is the decomposition the report was computed from, for later layers to
    reuse; it is left out of comparisons, repr and ``to_json``.
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
            "connected": self.connected,
            "leaders_nonadjacent": self.leaders_nonadjacent,
            "lambda_F": self.lambda_f,
            "epsilon_d": self.epsilon_d,
            "epsilon_d_nearest": self.epsilon_d_nearest,
            "epsilon": self.epsilon,
            "condition_iii_holds": self.condition_iii_holds,
            "condition_iv_holds": self.condition_iv_holds,
            "separation_lhs": self.separation_lhs,
            "separation_rhs_nearest": self.separation_rhs_nearest,
            "separated": self.separated,
            "min_follower_degree": self.min_follower_degree,
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

    eps_d = separation_margin(g, p, lam)
    eps_d_nearest = separation_margin(g, p, lam, exclude_self=True)
    eps = scale_optimal_distance(result.v_f, limiting_fiedler_vector(g, p, lam))
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
        epsilon_d_nearest=eps_d_nearest,
        epsilon=eps,
        condition_iii_holds=condition_iii,
        condition_iv_holds=condition_iv,
        separation_lhs=lhs,
        separation_rhs_nearest=rhs_nearest,
        separated=separated,
        min_follower_degree=min_follower_degree(g, p),
        spectral=result,
    )
