"""Relative-tempo estimation of the Fiedler vector and sorted-gap leader detection.

Once the slowest mode dominates, every agent's velocity is proportional to
its Fiedler-vector entry, so ratios of velocities against a fixed reference
agent recover the vector up to scale. Sorting the estimate and cutting at
the largest consecutive gap then yields the leader count and the leader set,
because certified graphs place all leader entries strictly below all
follower entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ExternalInput,
    SimConfig,
    Trajectory,
    choose_measurement_time,
    simulate,
)
from .errors import (
    AllVelocitiesZeroError,
    DegenerateEstimateError,
    ZeroReferenceVelocityError,
)
from .spectral import SpectralResult

_ZERO_GUARD = 1e-300
_DEGENERATE_TOL = 1e-12


def relative_tempo(velocities: np.ndarray, i: int, j: int) -> float:
    """Velocity ratio of agent i against agent j.

    For scalar states this is xdot_i / xdot_j; for vector states the
    projection ratio <xdot_i, xdot_j> / <xdot_j, xdot_j>, which reduces to
    the same number when all velocities are parallel (the late-time regime).
    """
    vel = _as_2d(velocities)
    ref = vel[j]
    denom = float(np.dot(ref, ref))
    if not denom > _ZERO_GUARD:
        raise ZeroReferenceVelocityError(f"agent {j} has zero velocity")
    if i == j:
        return 1.0
    return float(np.dot(vel[i], ref) / denom)


@dataclass(frozen=True)
class TempoVector:
    """All tempos against one reference agent (entry there is exactly 1)."""

    reference: int
    values: np.ndarray
    measurement_time: float


def estimate_fiedler(
    velocities: np.ndarray, measurement_time: float = float("nan")
) -> tuple[TempoVector, np.ndarray]:
    """Assemble the tempo vector and normalize it into a Fiedler estimate.

    The reference agent is the one with the largest velocity norm, which
    minimizes relative error amplification in the division. The estimate is
    unit-norm with positive orientation.
    """
    vel = _as_2d(velocities)
    norms = np.linalg.norm(vel, axis=1)
    if not norms.max() > _ZERO_GUARD:
        raise AllVelocitiesZeroError(
            "all velocities are zero: measured at equilibrium (x0 = x* or t too large)"
        )
    ref = int(norms.argmax())
    denom = float(vel[ref] @ vel[ref])
    if not denom > _ZERO_GUARD:  # the norm is representable but its square underflows
        raise ZeroReferenceVelocityError(f"agent {ref} has zero velocity")
    values = (vel @ vel[ref]) / denom  # relative_tempo(vel, i, ref) for every i
    values[ref] = 1.0
    estimate = values / np.linalg.norm(values)
    if estimate[np.abs(estimate).argmax()] < 0.0:
        estimate = -estimate
    values.flags.writeable = False
    estimate.flags.writeable = False
    tv = TempoVector(reference=ref, values=values, measurement_time=measurement_time)
    return tv, estimate


@dataclass(frozen=True)
class LeaderEstimate:
    """Sorted-gap detection output.

    gap_index is the 1-based position in the ascending sort after which the
    largest consecutive gap occurs; it equals n_leaders. tie_flagged marks
    near-equal values straddling the cut (resolved by original index order).
    """

    n_leaders: int
    leader_set: frozenset[int]
    sorted_values: np.ndarray
    gap_index: int
    gap_size: float
    tie_flagged: bool = False

    def to_json(self) -> dict:
        return {
            "n_leaders": self.n_leaders,
            "leaders": sorted(i + 1 for i in self.leader_set),
            "sorted_values": [float(x) for x in self.sorted_values],
            "gap_index": self.gap_index,
            "gap_size": self.gap_size,
            "tie_flagged": self.tie_flagged,
        }


def identify_leaders(estimate: np.ndarray) -> LeaderEstimate:
    """Cut the ascending estimate at its largest consecutive gap.

    The entries below the cut are the leaders. Argmax ties break toward the
    smallest cut (fewest leaders); the outcome is invariant under positive
    rescaling of the estimate. The detector presumes at least one leader
    exists: a leaderless (pure consensus) network still yields some cut,
    there is no built-in no-leader test.
    """
    values = np.asarray(estimate, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 agents")
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if sorted_values[-1] - sorted_values[0] <= _DEGENERATE_TOL:
        raise DegenerateEstimateError("all estimate entries equal within 1e-12")
    gaps = np.diff(sorted_values)
    cut = int(gaps.argmax())  # first maximum: fewest leaders on ties
    n_leaders = cut + 1
    sorted_values.flags.writeable = False
    return LeaderEstimate(
        n_leaders=n_leaders,
        leader_set=frozenset(int(i) for i in order[:n_leaders]),
        sorted_values=sorted_values,
        gap_index=n_leaders,
        gap_size=float(gaps[cut]),
        tie_flagged=bool(gaps[cut] <= _DEGENERATE_TOL),
    )


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Ground-truth comparison and measurement bookkeeping for one run.

    The true partition feeds only these diagnostics, never the estimate.
    """

    measurement_time: float
    predicted_dominance: float
    measured_dominance: float | None
    reference: int
    angle_to_true: float
    recovered: bool
    true_leaders: tuple[int, ...]
    trajectory: Trajectory
    tempo: TempoVector


def run_pipeline(
    spect: SpectralResult,
    u: ExternalInput,
    x0: np.ndarray,
    cfg: SimConfig | None = None,
) -> tuple[LeaderEstimate, PipelineDiagnostics]:
    """Simulate, measure at a dominance-certified time, estimate, identify.

    spect is the decomposition of the true grounded Laplacian; its partition
    feeds only the diagnostics. With cfg=None an exact-integrator config is
    derived that records only t=0 and the certified measurement time; an
    explicit cfg caps the measurement at its own t_final (any dominance
    degradation shows up in the diagnostics).
    """
    p_true = spect.grounded.partition
    t_meas, predicted = choose_measurement_time(spect.spectrum)
    if cfg is None:
        cfg = SimConfig(
            dimension=u.dimension,
            dt=t_meas,
            t_final=t_meas,
            record_every=1,
            integrator="exact",
        )
    elif t_meas > cfg.t_final:
        t_meas = cfg.t_final
        gap = spect.spectrum[1] - spect.spectrum[0]
        predicted = float(np.exp(-gap * t_meas))

    traj = simulate(spect, u, x0, cfg)
    # the recorded grid can stop short of t_final when dt does not divide it
    idx = traj.nearest_index(min(t_meas, float(traj.times[-1])))
    snapped = float(traj.times[idx])
    tempo_vec, estimate = estimate_fiedler(traj.velocities[idx], snapped)
    result = identify_leaders(estimate)

    diag = PipelineDiagnostics(
        measurement_time=snapped,
        predicted_dominance=predicted,
        measured_dominance=traj.dominance_ratio(snapped),
        reference=tempo_vec.reference,
        angle_to_true=vector_angle(estimate, spect.v_f),
        recovered=result.leader_set == frozenset(p_true.leaders),
        true_leaders=p_true.leaders,
        trajectory=traj,
        tempo=tempo_vec,
    )
    return result, diag


def vector_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Unsigned angle between two vectors in radians."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return float("nan")
    cosine = np.clip(abs(float(np.dot(a, b))) / (na * nb), 0.0, 1.0)
    return float(np.arccos(cosine))


def _as_2d(velocities: np.ndarray) -> np.ndarray:
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim == 1:
        vel = vel[:, None]
    if vel.ndim != 2:
        raise ValueError(f"velocities must be (n,) or (n, d), got shape {vel.shape}")
    return vel
