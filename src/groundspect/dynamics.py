"""Closed-loop consensus simulation with constant leader inputs.

The state equation is xdot = -L11 x + f where L11 is the grounded Laplacian
and f injects each leader's constant input into its own row. The same matrix
acts on every spatial coordinate, so a d-dimensional run is d independent
scalar systems sharing one decomposition, the SpectralResult passed in.

Velocities are always evaluated from the right-hand side, never finite
differenced. The exact integrator writes them in modal form
-sum_k lambda_k exp(-lambda_k t) q_k <q_k, x0 - x*>, which is the same
expression without the catastrophic cancellation that direct evaluation
suffers once the transient has decayed ~14 orders of magnitude. Modal
coefficients below the smallest normal float are flushed to zero first, which
avoids slow subnormal arithmetic and is exact for every output entry above
about 2**-969.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .errors import (
    MeasurementTimeCappedWarning,
    NonFiniteStateError,
    NonGenericInitialConditionWarning,
    TimeOutOfRangeError,
    UnstableStepError,
    as_int,
)
from .graphs import Partition
from .spectral import SpectralResult

# Classical RK4 stability limit on the real axis: dt * lambda < 2.785.
RK4_STABILITY = 2.785
# Fiedler-mode excitation below this relative size in every dimension makes
# tempo estimation ill-posed.
_EXCITATION_TOL = 1e-8
# choose_measurement_time's dominance target and its underflow cap on lambda_F t.
_TARGET_DOMINANCE = 1e-6
_MAX_DECAY = 30.0

INTEGRATORS = ("rk4", "exact")


@dataclass(frozen=True)
class ExternalInput:
    """Constant d-dimensional input vector per leader, none for followers.

    Each vector must hold exactly dimension finite numbers, not strings or
    booleans, stored as floats; errors name a node by its 1-based label, as
    to_json writes it.
    """

    dimension: int
    values: Mapping[int, tuple[float, ...]]

    def __post_init__(self) -> None:
        dimension = as_int(self.dimension, "dimension")
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        values = {}
        for node, vec in self.values.items():
            vec = tuple(vec)
            if any(isinstance(x, (str, bytes, bool, np.bool_)) for x in vec):
                raise ValueError(f"input for node {node + 1} has a non-numeric entry: {list(vec)}")
            vec = tuple(map(float, vec))
            if len(vec) != dimension:
                raise ValueError(
                    f"input for node {node + 1} has {len(vec)} entries, expected {dimension}"
                )
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"input for node {node + 1} is not finite: {list(vec)}")
            values[node] = vec
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "values", values)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "u": {str(k + 1): list(v) for k, v in sorted(self.values.items())},
        }


@dataclass(frozen=True)
class SimConfig:
    dimension: int = 1
    dt: float = 0.01
    t_final: float = 10.0
    record_every: int = 1
    integrator: str = "exact"

    def __post_init__(self) -> None:
        for name in ("dimension", "record_every"):
            value = as_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)
        if not (math.isfinite(self.dt) and math.isfinite(self.t_final)):
            raise ValueError("dt and t_final must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("t_final must be >= dt")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and right-hand-side velocities, each (T, n, d)."""

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    steady: np.ndarray

    def nearest_index(self, t: float) -> int:
        tol = 1e-9 * max(1.0, abs(t))
        if t < self.times[0] - tol or t > self.times[-1] + tol:
            raise TimeOutOfRangeError(
                f"t={t:.6g} outside recorded horizon "
                f"[{self.times[0]:.6g}, {self.times[-1]:.6g}]"
            )
        return int(np.abs(self.times - t).argmin())


def steady_state(spect: SpectralResult, u: ExternalInput) -> np.ndarray:
    """Equilibrium x* solving L11 x* = f in the eigenbasis: x* = Q((Q^T f) / w)."""
    q = spect.vectors
    return q @ ((q.T @ _forcing(spect.grounded.partition, u)) / spect.spectrum[:, None])


def simulate(
    spect: SpectralResult,
    u: ExternalInput,
    x0: np.ndarray,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the closed loop from x0 and record every record_every-th step.

    The final step is always recorded. Emits NonGenericInitialConditionWarning
    when x0 - x* has (numerically) no component along the slowest mode in any
    dimension.
    """
    if u.dimension != cfg.dimension:
        raise ValueError(f"input dimension {u.dimension} != config dimension {cfg.dimension}")
    x0 = np.asarray(x0, dtype=float)
    n = spect.v_f.size
    if x0.shape != (n, cfg.dimension):
        raise ValueError(f"x0 has shape {x0.shape}, expected {(n, cfg.dimension)}")
    if not np.isfinite(x0).all():
        raise NonFiniteStateError("non-finite initial state x0")

    w, q = spect.spectrum, spect.vectors
    xstar = steady_state(spect, u)
    y0 = q.T @ (x0 - xstar)  # (n, d) modal coefficients
    _warn_if_nongeneric(y0)

    n_steps = max(1, int(round(cfg.t_final / cfg.dt)))
    record = list(range(0, n_steps, cfg.record_every)) + [n_steps]
    times = np.array([k * cfg.dt for k in record])

    if cfg.integrator == "exact":
        modal = np.exp(-np.outer(times, w))[:, :, None] * y0  # (T, n, d)
        # x86 multiplies subnormals in microcode; a flushed term is under half an ulp of
        # any partial sum >= 2**-969, so only runs where every velocity underflows change.
        tiny = np.finfo(float).tiny
        modal[(modal < tiny) & (modal > -tiny)] = 0.0
        states = q @ modal
        states += xstar
        modal *= -w[:, None]
        velocities = q @ modal
    else:
        limit = RK4_STABILITY / w[-1]
        if cfg.dt >= limit:
            raise UnstableStepError(
                f"rk4 dt={cfg.dt:.6g} >= stability limit {limit:.6g} "
                f"(lambda_max={w[-1]:.6g})"
            )
        l11 = spect.grounded.matrix
        forcing = _forcing(spect.grounded.partition, u)
        rhs = lambda x: forcing - l11 @ x
        states = np.empty((len(record), n, cfg.dimension))
        record_set = {k: idx for idx, k in enumerate(record)}
        x = states[0] = x0  # the record always starts at step 0
        for k in range(1, n_steps + 1):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * cfg.dt * k1)
            k3 = rhs(x + 0.5 * cfg.dt * k2)
            k4 = rhs(x + cfg.dt * k3)
            x = x + (cfg.dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k in record_set:
                states[record_set[k]] = x
        velocities = forcing - l11 @ states
    if not np.isfinite(states).all():
        raise NonFiniteStateError("non-finite state in trajectory")
    return Trajectory(times=times, states=states, velocities=velocities, steady=xstar)


def measure_velocities(traj: Trajectory, t: float) -> np.ndarray:
    """Velocities at the recorded time nearest to t."""
    return traj.velocities[traj.nearest_index(t)].copy()


def choose_measurement_time(spectrum: np.ndarray) -> tuple[float, float]:
    """Pick a measurement time for steady-state-regime velocities.

    Aims for exp(-(lambda_2 - lambda_F) t) <= _TARGET_DOMINANCE while keeping
    lambda_F * t <= _MAX_DECAY so velocities do not underflow. When both
    cannot hold (tiny spectral gap) the underflow cap wins, the degraded
    predicted dominance is returned alongside the time, and a
    MeasurementTimeCappedWarning says so.
    """
    w = np.asarray(spectrum, dtype=float)
    lam_f, gap = float(w[0]), float(w[1] - w[0])
    t_cap = _MAX_DECAY / lam_f
    # nudge past the target so rounding cannot leave the dominance an ulp high
    t_target = np.log(1.0 / _TARGET_DOMINANCE) / gap * (1.0 + 1e-9) if gap > 0.0 else math.inf
    t = float(min(t_target, t_cap))
    dominance = float(np.exp(-gap * t)) if gap > 0.0 else 1.0
    if t_cap < t_target:
        warnings.warn(
            f"spectral gap {gap:.6g} (lambda_F={lam_f:.6g}) too small for the dominance "
            f"target before underflow: measuring at t={t:.6g}, predicted dominance {dominance:.6g}",
            MeasurementTimeCappedWarning,
        )
    return t, dominance


def _forcing(p: Partition, u: ExternalInput) -> np.ndarray:
    """-L12 y as an (n, d) array: +u_k in the k-th leader's row, every leader's u_k given."""
    extra = set(u.values) - set(p.leaders)
    missing = set(p.leaders) - set(u.values)
    if extra or missing:
        raise ValueError(
            f"inputs must cover exactly the leaders; extra={sorted(extra)} "
            f"missing={sorted(missing)}"
        )
    forcing = np.zeros((p.n, u.dimension))
    for leader in p.leaders:
        forcing[leader] = u.values[leader]
    return forcing


def _warn_if_nongeneric(y0: np.ndarray) -> None:
    # Q is orthonormal, so y0's column norms are those of x0 - x*
    norms = np.linalg.norm(y0, axis=0)
    live = norms > 0.0
    if not live.any():
        return  # started at the equilibrium; nothing to warn about
    ratios = np.abs(y0[0, live]) / norms[live]
    if (ratios < _EXCITATION_TOL).all():
        warnings.warn(
            "initial condition has no slowest-mode component in any dimension",
            NonGenericInitialConditionWarning,
            stacklevel=3,
        )
