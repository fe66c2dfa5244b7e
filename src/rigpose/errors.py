"""Exception types raised by the rigpose estimation stack, and the one
check that config dataclasses run on their fields.

Everything derives from RigPoseError so callers can catch the whole family.
Numerical-degeneracy errors (IllConditioned, BehindCamera, ...) derive
from DegenerateGeometry: the pipelines treat them as recoverable per-frame
conditions, not hard failures.
"""

import math
from dataclasses import fields
from numbers import Integral, Real


class RigPoseError(Exception):
    """Base class for all rigpose errors."""


class InputError(RigPoseError):
    """Malformed user input (files, configs, CLI arguments)."""


class DegenerateGeometry(RigPoseError):
    """Numerically degenerate configuration; usually recoverable per frame."""


class NonOrthonormalInput(InputError):
    """A matrix expected to be a rotation is not orthonormal."""


class GimbalProximity(DegenerateGeometry):
    """Pitch too close to +-pi/2 for a stable Euler decomposition."""


class InvalidCameraIndex(InputError):
    """Camera index outside the rig's camera list."""


class BehindCamera(DegenerateGeometry):
    """A point has nonpositive depth in the camera it should project into."""


class CoincidentCenters(DegenerateGeometry):
    """Two camera centers coincide; no epipolar geometry exists."""


class IllConditioned(DegenerateGeometry):
    """Scale system too ill-conditioned to solve; fall back to previous scales."""


class InsufficientMatches(DegenerateGeometry):
    """Fewer than four 3D-2D matches supplied to the pose solver."""


class Diverged(DegenerateGeometry):
    """Iterative pose refinement failed to reduce the residual."""


class InsufficientFeatures(DegenerateGeometry):
    """Too few validated feature matches to start a sequence."""


class LengthMismatch(InputError):
    """Series compared against a trajectory of a different length."""


class EstimationFailure(RigPoseError):
    """A sequence run aborted for numerical reasons (non-finite state)."""


def check_config_fields(
    config, block: str, at_least: dict | None = None, positive: tuple = ()
) -> None:
    """Raise InputError for the first field of a config dataclass whose
    value is not of its annotated type (int or float; a bool is neither),
    is not finite, is below its at_least bound, or is listed in positive
    and not above 0."""
    at_least = at_least or {}
    for f in fields(config):
        value = getattr(config, f.name)
        kind = Integral if f.type == "int" else Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InputError(f"{block}.{f.name} must be {f.type}, got {value!r}")
        if not -math.inf < value < math.inf:
            raise InputError(f"{block}.{f.name} must be finite, got {value!r}")
        if f.name in at_least and not value >= at_least[f.name]:
            raise InputError(f"{block}.{f.name} must be >= {at_least[f.name]}, got {value!r}")
        if f.name in positive and not value > 0:
            raise InputError(f"{block}.{f.name} must be > 0, got {value!r}")
