"""Exception types raised by the rigpose estimation stack, the one check
of an input number (which config dataclasses run on their fields), and the
one way files are opened and JSON input is read and built into dataclasses.

Everything derives from RigPoseError so callers can catch the whole family.
Numerical-degeneracy errors derive from DegenerateGeometry. Two are
recovered where they arise: IllConditioned (a fusion frame keeps its
previous scales) and GimbalProximity (angles_from_rig_rotation). Any other
one, such as InsufficientFeatures, InsufficientMatches or Diverged, ends
the run; so does BehindCamera, which Lowe's method raises only for its
initial pose (a line-search candidate with a match at or behind the camera
costs inf instead).
"""

import errno
import json
import os
from contextlib import contextmanager
from dataclasses import fields
from numbers import Integral, Real


class RigPoseError(Exception):
    """Base class for all rigpose errors."""


class InputError(RigPoseError):
    """Malformed user input (files, configs, CLI arguments)."""


class DegenerateGeometry(RigPoseError):
    """Numerically degenerate configuration."""


class NonOrthonormalInput(InputError):
    """A matrix expected to be a rotation is not orthonormal."""


class GimbalProximity(DegenerateGeometry):
    """Pitch too close to +-pi/2 for a stable Euler decomposition."""


class BehindCamera(DegenerateGeometry):
    """A point has nonpositive depth in the camera it should project into."""


class IllConditioned(DegenerateGeometry):
    """Scale system too ill-conditioned to solve; fall back to previous scales."""


class InsufficientMatches(DegenerateGeometry):
    """Fewer than four 3D-2D matches supplied to the pose solver."""


class Diverged(DegenerateGeometry):
    """Iterative pose refinement failed to reduce the residual."""


class InsufficientFeatures(DegenerateGeometry):
    """Too few measurable features to start a filter: at frame 0, or at
    frame 1 where Lowe's method seeds it."""


class LengthMismatch(InputError):
    """A series scored against, or observations seeded from, a trajectory
    of a different length."""


class EstimationFailure(RigPoseError):
    """A sequence run aborted for numerical reasons (non-finite state)."""


# The largest magnitude of a number read from any input: far above any real
# value, and far enough below overflow that products of inputs stay finite.
MAX_MAGNITUDE = 1e12


def check_number(name: str, value, kind: str, at_least=None, positive: bool = False) -> None:
    """Raise InputError naming name when value is not of kind ("int" or
    "float"; a bool is neither), is a number above MAX_MAGNITUDE in
    magnitude or not finite, is below at_least, or is not above 0 where
    positive is set."""
    if isinstance(value, bool) or not isinstance(value, Integral if kind == "int" else Real):
        raise InputError(f"{name} must be {kind}, got {value!r}")
    if not abs(value) <= MAX_MAGNITUDE:
        raise InputError(f"{name} must be within +-{MAX_MAGNITUDE:g}, got {value!r}")
    if at_least is not None and not value >= at_least:
        raise InputError(f"{name} must be >= {at_least}, got {value!r}")
    if positive and not value > 0:
        raise InputError(f"{name} must be > 0, got {value!r}")


def check_config_fields(
    config, block: str, at_least: dict | None = None, positive: tuple = ()
) -> None:
    """check_number on each field of a config dataclass, named block.field,
    against its annotated type, its at_least bound and its place in
    positive."""
    at_least = at_least or {}
    for f in fields(config):
        check_number(f"{block}.{f.name}", getattr(config, f.name), f.type,
                     at_least.get(f.name), f.name in positive)


@contextmanager
def open_path(path, mode: str = "r", **kwargs):
    """open(path, mode) as UTF-8 text, for every reader and writer of the
    package: a path that cannot be opened, read or written (missing, a
    directory, in a missing directory) and a file that is not UTF-8 raise
    InputError naming the path."""
    try:
        with open(path, mode, encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def check_output_paths(outputs, inputs=()) -> None:
    """Raise InputError, as open_path would on writing, for the first output
    path that is a directory or lies in a missing directory, and for one
    that resolves to the same file as another output or an input (two
    inputs may share a file); None is skipped."""
    taken = {os.path.realpath(path): path for path in filter(None, inputs)}
    for path in filter(None, outputs):
        if os.path.isdir(path):
            raise InputError(f"{path}: {os.strerror(errno.EISDIR)}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"{path}: {os.strerror(errno.ENOENT)}")
        real = os.path.realpath(path)
        if real in taken:
            raise InputError(f"{path}: the same file as {taken[real]}, "
                             "which the command also uses")
        taken[real] = path


def read_json(path):
    """The JSON value of a file; one that is not JSON raises InputError naming its line."""
    with open_path(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def json_object(value, what: str, keys) -> dict:
    """value if it is a JSON object holding only keys; else InputError naming what."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise InputError(f"{what}: unknown key {key!r}; allowed: {', '.join(keys)}")
    return value


def build_block(cls, block, what: str):
    """cls from a JSON object holding only its fields, each checked by cls itself."""
    return cls(**json_object(block, what, [f.name for f in fields(cls)]))
