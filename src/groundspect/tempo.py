"""Relative-tempo estimation of the Fiedler vector and sorted-gap leader detection.

Once the slowest mode dominates, every agent's velocity is proportional to
its Fiedler-vector entry, so ratios of velocities against a fixed reference
agent recover the vector up to scale. Sorting the estimate and cutting at
the largest consecutive gap then yields the leader count and the leader set,
because certified graphs place all leader entries strictly below all
follower entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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
from .spectral import SpectralResult, _unit_positive

_ZERO_GUARD = 1e-300
_DEGENERATE_TOL = 1e-12


def relative_tempo(velocities: np.ndarray, i: int, j: int) -> float:
    """Velocity ratio of agent i against agent j.

    For scalar states this is xdot_i / xdot_j; for vector states the
    projection ratio <xdot_i, xdot_j> / <xdot_j, xdot_j>, which reduces to
    the same number when all velocities are parallel (the late-time regime).
    """
    return float(_tempos(_as_2d(velocities), j)[i])


def estimate_fiedler(velocities: np.ndarray) -> tuple[int, np.ndarray]:
    """Normalize the tempos against a reference agent into a Fiedler estimate.

    Returns (reference, estimate). The reference agent is the one with the
    largest velocity norm, which minimizes relative error amplification in
    the division. The estimate is unit-norm with positive orientation.
    """
    vel = _as_2d(velocities)
    norms = np.linalg.norm(vel, axis=1)
    if not norms.max() > _ZERO_GUARD:
        raise AllVelocitiesZeroError(
            "all velocities are zero: measured at equilibrium (x0 = x* or t too large)"
        )
    ref = int(norms.argmax())
    values = _tempos(vel, ref)
    estimate = _unit_positive(values)
    estimate.flags.writeable = False
    return ref, estimate


@dataclass(frozen=True)
class LeaderEstimate:
    """Sorted-gap detection output.

    The largest consecutive gap of the ascending sort follows its first
    n_leaders values. tie_flagged marks near-equal values straddling the cut
    (resolved by original index order).
    """

    n_leaders: int
    leader_set: frozenset[int]
    sorted_values: np.ndarray
    gap_size: float
    tie_flagged: bool = False

    def to_json(self) -> dict:
        return {
            "n_leaders": self.n_leaders,
            "leaders": sorted(i + 1 for i in self.leader_set),
            "sorted_values": [float(x) for x in self.sorted_values],
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
        gap_size=float(gaps[cut]),
        tie_flagged=bool(gaps[cut] <= _DEGENERATE_TOL),
    )


@dataclass(frozen=True)
class PipelineDiagnostics:
    """Ground-truth comparison and measurement bookkeeping for one run.

    The true partition feeds only these diagnostics, never the estimate.
    Both dominance numbers are taken at measurement_time t: the predicted one
    is exp(-(lambda_2 - lambda_F) t), the measured one the largest non-slowest
    modal velocity amplitude over the slowest's. Small means the slowest mode
    dominates.
    """

    measurement_time: float
    predicted_dominance: float
    measured_dominance: float
    reference: int
    angle_to_true: float
    recovered: bool
    trajectory: Trajectory = field(compare=False, repr=False)

    def to_json(self) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        return record | {"reference": self.reference + 1}  # a 1-based label


def run_pipeline(
    spect: SpectralResult,
    u: ExternalInput,
    x0: np.ndarray,
    cfg: SimConfig | None = None,
) -> tuple[LeaderEstimate, PipelineDiagnostics]:
    """Simulate, measure once, estimate, identify.

    spect is the decomposition of the true grounded Laplacian; its partition
    feeds only the diagnostics. The run is measured at one time, the recorded
    time nearest the certified one, and both dominance numbers are taken
    there. With cfg=None an exact-integrator config is derived that records
    only t=0 and the certified time; an explicit cfg's recorded grid caps the
    measurement at its last row (any dominance degradation shows up in the
    diagnostics).
    """
    t_meas, _ = choose_measurement_time(spect.spectrum)
    if cfg is None:
        cfg = SimConfig(u.dimension, dt=t_meas, t_final=t_meas, integrator="exact")
    traj = simulate(spect, u, x0, cfg)
    idx = traj.nearest_index(min(t_meas, float(traj.times[-1])))
    snapped = float(traj.times[idx])
    reference, estimate = estimate_fiedler(traj.velocities[idx])
    result = identify_leaders(estimate)

    # mode k's velocity amplitude at t is w_k exp(-w_k t) |<q_k, x0 - x*>|
    w = spect.spectrum
    modal = spect.vectors.T @ (np.asarray(x0, dtype=float) - traj.steady)
    amp = w * np.exp(-w * snapped) * np.linalg.norm(modal, axis=1)
    diag = PipelineDiagnostics(
        measurement_time=snapped,
        predicted_dominance=float(np.exp(-(w[1] - w[0]) * snapped)),
        measured_dominance=float("inf") if amp[0] == 0.0 else float(amp[1:].max() / amp[0]),
        reference=reference,
        angle_to_true=vector_angle(estimate, spect.v_f),
        recovered=result.leader_set == frozenset(spect.grounded.partition.leaders),
        trajectory=traj,
    )
    return result, diag


def vector_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Unsigned angle between two vectors in radians."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return float("nan")
    cosine = np.clip(abs(float(np.dot(a, b))) / (na * nb), 0.0, 1.0)
    return float(np.arccos(cosine))


def _tempos(vel: np.ndarray, j: int) -> np.ndarray:
    """Every agent's relative tempo against agent j; agent j's own is exactly 1."""
    ref = vel[j]
    denom = float(ref @ ref)
    if not denom > _ZERO_GUARD:  # zero, or so small that its square underflows
        raise ZeroReferenceVelocityError(f"agent {j} has zero velocity")
    values = (vel @ ref) / denom
    values[j] = 1.0
    return values


def _as_2d(velocities: np.ndarray) -> np.ndarray:
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim == 1:
        vel = vel[:, None]
    if vel.ndim != 2:
        raise ValueError(f"velocities must be (n,) or (n, d), got shape {vel.shape}")
    return vel
