"""Exception types shared across the toolkit, and the integer rule that the
config and file parsers share."""

import json
import operator


class GroundspectError(Exception):
    """Base class for all toolkit-specific errors."""


class InputFormatError(GroundspectError):
    """A file or config payload does not match the documented schema."""


# -- graph construction and partitions ---------------------------------------

class SelfLoopError(GroundspectError):
    """An edge joins a node to itself."""


class DuplicateEdgeError(GroundspectError):
    """The same unordered node pair appears twice in an edge list."""


class IndexOutOfRangeError(GroundspectError):
    """A node index falls outside [0, n)."""


class EmptyLeaderSetError(GroundspectError):
    """A partition has no leader nodes (grounding requires at least one)."""


class EmptyFollowerSetError(GroundspectError):
    """A partition has no follower nodes."""


# -- spectral computations ----------------------------------------------------

class FiedlerOutOfRangeError(GroundspectError):
    """Smallest eigenvalue is outside (0, 1); the graph is likely
    disconnected or the partition invalid."""


class SignIndefiniteError(GroundspectError):
    """The computed Fiedler vector has mixed signs beyond tolerance,
    signalling eigenvalue multiplicity or a solver failure."""


class SingularScalingError(GroundspectError):
    """A diagonal entry of the semi-normalized scaling matrix is <= 0."""


class IsolatedLeaderError(GroundspectError):
    """A leader has degree zero, so the graph cannot be connected."""


# -- sequence generation ------------------------------------------------------

class InfeasibleConfigError(GroundspectError):
    """A sequence config cannot be realized (e.g. leader degree exceeds
    the follower count)."""


# -- simulation ----------------------------------------------------------------

class UnstableStepError(GroundspectError):
    """The rk4 step size violates the stability bound dt < 2.785/lambda_max."""


class NonFiniteStateError(GroundspectError):
    """The integrator produced a non-finite state."""


class TimeOutOfRangeError(GroundspectError):
    """Requested measurement time lies outside the recorded horizon."""


# -- tempo estimation -----------------------------------------------------------

class ZeroReferenceVelocityError(GroundspectError):
    """The reference agent's velocity is numerically zero."""


class AllVelocitiesZeroError(GroundspectError):
    """Every agent velocity is zero: the system is at equilibrium."""


class DegenerateEstimateError(GroundspectError):
    """All estimate entries are equal within tolerance; no gap exists."""


class NonGenericInitialConditionWarning(UserWarning):
    """The initial condition has (numerically) no component along the
    slowest mode in any dimension; tempo ratios will not converge to it."""


class MeasurementTimeCappedWarning(UserWarning):
    """The measurement comes before the dominance target is reached: the
    spectral gap is too small to reach it before the velocities underflow, or
    the recorded grid has no row near the certified time. The slowest mode
    dominates less than targeted."""


def as_int(value: object, name: str = "node label") -> int:
    """value as an int if it is an integer; a bool, a fraction or a string raises
    ValueError, which shows the value as JSON where it has a JSON form."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {json.dumps(value, default=repr)}")
