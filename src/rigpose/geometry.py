"""Rig geometry: rotations, rigid transforms, and pinhole projection.

Coordinate conventions used across the package:

* World frame: the reference camera's frame at frame 0 (x right, y down,
  z along the reference optical axis). All pose parameters are expressed
  with respect to this frame.
* Camera frame: standard computer vision (x right, y down, z forward).
* A body pose is one row (tx, ty, tz, alpha, beta, gamma), shape (6,):
  translation d = (tx, ty, tz) of the reference camera and rotation angles
  about the world x/y/z axes with composition R = Rx(alpha) @ Ry(beta) @
  Rz(gamma). A pose series is one (F, 6) array of such rows.
* A point M (world) seen by the reference camera at pose (d, R) has camera
  coordinates P = R^T (M - d). Camera k of the rig, mounted at displacement
  D_k with fixed rotation R_k, sees P_k = R_k^T R^T (M - d - R D_k).
* Pixels: u = fx * x/z + cx, v = fy * y/z + cy.

Every placement of world points into rig cameras, and the pinhole after it,
goes through one kernel, view_points, over a CameraStack, built from the
rig's cameras by CameraStack.of: the renderer, the EKF measurement model,
Lowe's method and the chains' ideal structure all share its bits. Its
inverse, back_project, gives each pixel's center and ray through the same
stack: stereo triangulation and the chains' re-detection place their
structure through it.

Angle decomposition is only valid away from |beta| = pi/2; the per-frame
motion regime of this package stays far inside that bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    InputError,
    GimbalProximity,
    NonOrthonormalInput,
    check_config_fields,
    check_number,
    json_object,
    open_path,
    read_json,
)

# Orthonormality guard used wherever a rotation matrix is accepted as input.
ORTHO_TOL = 1e-9
# Points closer to the image plane than this are treated as invisible.
Z_MIN = 1e-6
# |cos(beta)| below this is gimbal proximity for the Euler decomposition.
GIMBAL_TOL = 1e-6
# Camera centers closer than this (m) have no epipolar geometry.
MIN_BASELINE = 1e-9


# The source of each entry of a (3, 3, 3) stack of rotations about the x, y
# and z axes, row by row: column q of (c_0, c_1, c_2, s_0, s_1, s_2, -s_0,
# -s_1, -s_2, 0, 1) for the cosines c and sines s of the three angles.
_FROM = np.array([10, 9, 9, 9, 0, 6, 9, 3, 0, 1, 9, 4, 9, 10, 9, 7, 9, 1,
                  2, 8, 9, 5, 2, 9, 9, 9, 10])


def rot_from_angles(angles) -> np.ndarray:
    """Build the rotation matrix R = Rx(alpha) @ Ry(beta) @ Rz(gamma); angles
    (..., 3) give rotations (..., 3, 3). The three axis rotations are one
    gather (_FROM) of the angles' cosines and sines."""
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    source = np.concatenate([c, s, -s, np.full(c.shape[:-1] + (2,), (0.0, 1.0))], axis=-1)
    r = source.take(_FROM, axis=-1).reshape(c.shape[:-1] + (3, 3, 3))
    return r[..., 0, :, :] @ r[..., 1, :, :] @ r[..., 2, :, :]


def check_rotation(rot: np.ndarray) -> None:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise NonOrthonormalInput(f"expected 3x3 rotation, got shape {rot.shape}")
    err = np.abs(rot @ rot.T - np.eye(3)).max()
    if not np.isfinite(err) or err > ORTHO_TOL:
        raise NonOrthonormalInput(f"matrix not orthonormal (|RR^T - I| = {err:.3g})")
    if np.linalg.det(rot) < 0.0:
        raise NonOrthonormalInput("matrix has negative determinant (reflection)")


def euler_angles(rot: np.ndarray) -> np.ndarray:
    """Decompose rotations (..., 3, 3) into angles (..., 3) = (alpha, beta,
    gamma) with R = Rx Ry Rz.

    Does not check orthonormality: for rotations the package built itself.
    Raises GimbalProximity when |cos(beta)| falls below GIMBAL_TOL for any
    of them.
    """
    # R[0,2] = sin(beta); R[1,2] = -sin(alpha)cos(beta); R[2,2] = cos(alpha)cos(beta)
    # R[0,0] = cos(beta)cos(gamma); R[0,1] = -cos(beta)sin(gamma)
    sb = np.clip(rot[..., 0, 2], -1.0, 1.0)
    cb = np.hypot(rot[..., 0, 0], rot[..., 0, 1])
    if np.any(cb < GIMBAL_TOL):
        raise GimbalProximity("|cos(beta)| below tolerance; decomposition unstable")
    beta = np.arctan2(sb, cb)
    alpha = np.arctan2(-rot[..., 1, 2], rot[..., 2, 2])
    gamma = np.arctan2(-rot[..., 0, 1], rot[..., 0, 0])
    return np.stack([alpha, beta, gamma], axis=-1)


def change_basis(rot_k: np.ndarray, rot_local: np.ndarray) -> np.ndarray:
    """R_k @ r @ R_k^T: camera-local rotations expressed about the reference
    axes; both may be stacks (..., 3, 3). Does not check its inputs: for
    rotations the package built itself."""
    return rot_k @ rot_local @ np.swapaxes(rot_k, -1, -2)


@dataclass
class Intrinsics:
    """Pinhole intrinsics in pixel units."""

    fx: float = 1000.0
    fy: float = 1000.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self):
        check_config_fields(self, "intrinsics", at_least={"width": 1, "height": 1},
                            positive=("fx", "fy"))
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InputError("principal point outside image bounds")


@dataclass
class Camera:
    """One rig camera: displacement D from the reference camera, fixed
    rotation R w.r.t. the world frame, and intrinsics."""

    D: np.ndarray
    R: np.ndarray
    intrinsics: Intrinsics = field(default_factory=Intrinsics)

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float).reshape(3)
        self.R = np.asarray(self.R, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(self.D)):
            raise InputError(f"camera displacement D must be finite, got {self.D}")
        check_rotation(self.R)


@dataclass
class CameraRig:
    """Ordered camera list; entry 0 is the reference camera (D = 0, R = I),
    and an overlapping rig's stereo pairs have distinct camera centers."""

    cameras: list[Camera]
    layout: str = "overlapping"

    def __post_init__(self):
        if not self.cameras:
            raise InputError("rig needs at least one camera")
        ref = self.cameras[0]
        if np.any(ref.D != 0.0) or np.any(ref.R != np.eye(3)):
            raise InputError("rig camera 0 must have D = 0 and R = I exactly")
        if self.layout not in ("overlapping", "non-overlapping"):
            raise InputError(f"unknown layout tag {self.layout!r}")
        if self.layout == "overlapping" and len(self.cameras) % 2 == 0:
            for a, b in self.stereo_pairs():
                if np.linalg.norm(self.cameras[a].D - self.cameras[b].D) < MIN_BASELINE:
                    raise InputError(f"cameras {a} and {b} have coincident centers")

    def __len__(self) -> int:
        return len(self.cameras)

    def check_layout(self, layout: str) -> None:
        """Raise InputError unless this is a rig the layout's pipeline takes:
        stereo pairs (an even camera count) tagged overlapping, or four
        cameras tagged non-overlapping."""
        n = len(self.cameras)
        if self.layout != layout or (n % 2 if layout == "overlapping" else n != 4):
            need = "an even camera count" if layout == "overlapping" else "4 cameras"
            raise InputError(f"the {layout} pipeline needs a rig tagged {layout!r} with {need}, "
                             f"got {n} cameras tagged {self.layout!r}")

    def stereo_pairs(self) -> list[tuple[int, int]]:
        """Consecutive-camera pairing convention for overlapping rigs."""
        self.check_layout("overlapping")
        return [(2 * i, 2 * i + 1) for i in range(len(self.cameras) // 2)]


@dataclass
class CameraStack:
    """Cameras for the segmented kernels: camera s hangs on pose body[s] of a
    stack of body poses, with displacement D[s], rotation R[s] and pinhole[s]
    = (fx, fy, cx, cy); a point's segment is the index s of its camera."""

    D: np.ndarray
    R: np.ndarray
    pinhole: np.ndarray
    body: np.ndarray

    @classmethod
    def of(cls, cameras: list[Camera], body) -> "CameraStack":
        intr = [c.intrinsics for c in cameras]
        return cls(np.stack([c.D for c in cameras]), np.stack([c.R for c in cameras]),
                   np.array([[i.fx, i.fy, i.cx, i.cy] for i in intr]), np.asarray(body))


def camera_placement(rot: np.ndarray, d: np.ndarray, cam) -> tuple[np.ndarray, np.ndarray]:
    """World center C = d + R D_k and camera-to-world orientation W = R R_k
    of a rig camera with the body at translation d and rotation rot; for a
    CameraStack, rot (S, 3, 3) and d (S, 3) are each camera's body pose."""
    return d + (rot @ cam.D[..., None])[..., 0], rot @ cam.R


def _pinhole(p_cam: np.ndarray, pinhole: np.ndarray) -> np.ndarray:
    """Pixels (M, 2) of component-major camera-frame points p_cam (3, M) with
    pinhole (4, M) = (fx, fy, cx, cy): u = fx x/z + cx and v = fy y/z + cy.
    The pixels come back in C order, as the pose update takes a filter's
    rows by reshape: NumPy's matmul leaves BLAS for a strided operand, and
    its sums then come out in other bits."""
    return (pinhole[:2] * p_cam[:2] / p_cam[2] + pinhole[2:]).T.copy()


def pinhole_derivatives(p_cam: np.ndarray, dp: np.ndarray, focal: np.ndarray) -> np.ndarray:
    """The chain rule through the pinhole, in closed form and component-major:
    pixel derivatives (2, k, M) of camera-frame points p_cam (3, M) in front
    of their camera, whose derivatives with respect to k parameters are
    dp (3, k, M), with focal lengths focal (2, M) = (fx, fy):
    du = fx/z (dx - x/z dz), dv = fy/z (dy - y/z dz)."""
    z = p_cam[2]
    return (focal / z)[:, None] * (dp[:2] - (p_cam[:2] / z)[:, None] * dp[2])


def axis_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """terms summed over one axis that is not their innermost, in index
    order: NumPy adds such an axis term after term, so the bits equal the
    written-out t_0 + t_1 + t_2. The sum starts from -0.0, the exact
    identity of addition, so an all -0.0 sum stays -0.0 as written out."""
    return terms.sum(axis=axis, initial=-0.0)


def view_points(points, rot: np.ndarray, d: np.ndarray, cams: CameraStack, seg):
    """World points seen through the cameras of a CameraStack: the one
    placement-and-pinhole kernel. rot (B, 3, 3) and d (B, 3) stack the body
    poses, and point i of points (N, 3) is seen by camera seg[i].

    Each camera-frame point P_k = W^T (M - C), with C and W from
    camera_placement, is P_c = sum_i m_i W[i, c] over the rows of its
    camera's W: one broadcast product and one sum over the row axis, which
    is not the innermost axis, so NumPy adds its three terms in index order
    and the bits are those of the written-out m_0 W[0, c] + m_1 W[1, c] +
    m_2 W[2, c] (tests/reference.py keeps that form as the oracle). Each
    point's bits therefore do not depend on the rest of the batch. Only the
    M points in front (depth > Z_MIN) get pixels: returns (p_cam (N, 3),
    uv (M, 2), front (N,), W (S, 3, 3) of each camera, at_front), where
    at_front = (seg (M,), p_cam (3, M), pinhole (4, M)) holds the front
    points' cameras, coordinates and pinholes, gathered once for the
    kernels' derivatives.
    """
    center, orient = camera_placement(rot[cams.body], d[cams.body], cams)
    # component-major, points last: w[c, i, n] is W[i, c] of point n's camera
    w = orient.T.take(seg, axis=-1)
    m = points.T - center.T.take(seg, axis=-1)
    p_cam = axis_sum(m * w, 1)
    front = p_cam[2] > Z_MIN
    sf = seg[front]
    at_front = sf, p_cam.compress(front, axis=-1), cams.pinhole.T.take(sf, axis=-1)
    return p_cam.T, _pinhole(*at_front[1:]), front, orient, at_front


def back_project(uv: np.ndarray, rot: np.ndarray, d: np.ndarray, cams: CameraStack, seg):
    """The inverse of view_points: the world-frame center and unit-depth ray,
    each (N, 3), of pixel uv[i] (N, 2) through camera seg[i] of a CameraStack
    with the body poses rot (B, 3, 3) and d (B, 3). The pixel's point at
    depth z is center + z ray.

    The ray is W r for the camera-frame ray r = ((u - cx)/fx, (v - cy)/fy,
    1) and W from camera_placement: ray_c = sum_i W[c, i] r_i, one
    broadcast product and one sum over its leading axis, so its bits are
    those of the written-out three-term sum (tests/reference.py) and do not
    depend on the rest of the batch.
    """
    center, orient = camera_placement(rot[cams.body], d[cams.body], cams)
    fx, fy, cx, cy = cams.pinhole.T.take(seg, axis=-1)
    r = np.stack([(uv[:, 0] - cx) / fx, (uv[:, 1] - cy) / fy, np.ones(len(seg))])
    # component-major, pixels last: w[i, c, n] is W[c, i] of pixel n's camera
    w = orient.T.take(seg, axis=-1)
    return center.T.take(seg, axis=-1).T, axis_sum(r[:, None] * w, 0).T


# ---------------------------------------------------------------------------
# Rig file I/O and the default rigs of the comparative study
# ---------------------------------------------------------------------------

def rig_to_dict(rig: CameraRig) -> dict:
    return {
        "layout": rig.layout,
        "cameras": [
            {
                "D": [float(x) for x in cam.D],
                "R_angles": [float(x) for x in angles_from_rig_rotation(cam.R)],
                "fx": float(cam.intrinsics.fx),
                "fy": float(cam.intrinsics.fy),
                "cx": float(cam.intrinsics.cx),
                "cy": float(cam.intrinsics.cy),
                "width": cam.intrinsics.width,
                "height": cam.intrinsics.height,
            }
            for cam in rig.cameras
        ],
    }


def angles_from_rig_rotation(rot: np.ndarray) -> np.ndarray:
    """Euler angles for a rig extrinsic rotation; allows beta = pi (a camera
    facing straight back), which the general decomposition rejects. The
    rotation was validated when its Camera was built."""
    try:
        return euler_angles(rot)
    except GimbalProximity:
        # beta = +-pi/2 exactly: sideways-facing camera. gamma fixed to 0.
        sb = np.clip(rot[0, 2], -1.0, 1.0)
        beta = np.pi / 2 if sb > 0 else -np.pi / 2
        alpha = np.arctan2(rot[2, 1], rot[1, 1])
        return np.array([alpha, beta, 0.0])


def _three_numbers(value, what: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == 3):
        raise InputError(f"{what} must be a list of 3 numbers, got {value!r}")
    for i, v in enumerate(value):
        check_number(f"{what}[{i}]", v, "float")
    return np.array(value, dtype=float)


def rig_from_dict(data, source: str = "rig") -> CameraRig:
    """A rig from its JSON object: "layout" and "cameras", each holding "D",
    "R_angles" and any Intrinsics fields. Errors name the source and camera."""
    data = json_object(data, source, ("layout", "cameras"))
    if not isinstance(entries := data.get("cameras"), list):
        raise InputError(f"{source}: 'cameras' must be a list of objects")
    cameras = []
    for i, entry in enumerate(entries):
        where = f"{source}: cameras[{i}]"
        entry = json_object(entry, where, ("D", "R_angles", *(f.name for f in fields(Intrinsics))))
        d, angles = (_three_numbers(entry.get(key), f"{where}.{key}") for key in ("D", "R_angles"))
        try:
            intr = Intrinsics(**{k: v for k, v in entry.items() if k not in ("D", "R_angles")})
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc
        cameras.append(Camera(D=d, R=rot_from_angles(angles), intrinsics=intr))
    return CameraRig(cameras=cameras, layout=data.get("layout", "overlapping"))


def write_rig(path, rig: CameraRig) -> None:
    with open_path(path, "w") as fh:
        json.dump(rig_to_dict(rig), fh, indent=2)
        fh.write("\n")


def read_rig(path) -> CameraRig:
    return rig_from_dict(read_json(path), source=str(path))


BASELINE_M = 0.1


def default_nonoverlap_rig() -> CameraRig:
    """Four individually aimed cameras: forward, right, backward, left.

    Camera 1 (index 0) faces +z at the front of the platform; its
    back-to-back partner (camera 3) sits 0.1 m directly behind it facing
    -z, so that camera's optical axis passes through the reference point.
    The perpendicular pair (cameras 2 and 4) sits at the platform's middle
    station facing +-x, each 0.1 m from camera 1; their optical axes miss
    the reference point, which couples their rotation and translation
    estimates. The two back-to-back axes are perpendicular. Every camera
    has the default Intrinsics.
    """
    side_x = np.sqrt(BASELINE_M**2 - (BASELINE_M / 2) ** 2)
    side_z = -BASELINE_M / 2
    return CameraRig(
        cameras=[
            Camera(D=np.zeros(3), R=np.eye(3)),
            Camera(D=np.array([side_x, 0.0, side_z]), R=rot_from_angles([0.0, np.pi / 2, 0.0])),
            Camera(D=np.array([0.0, 0.0, -BASELINE_M]), R=rot_from_angles([0.0, np.pi, 0.0])),
            Camera(D=np.array([-side_x, 0.0, side_z]), R=rot_from_angles([0.0, -np.pi / 2, 0.0])),
        ],
        layout="non-overlapping",
    )


def default_overlap_rig() -> CameraRig:
    """Two back-to-back stereo pairs sharing the reference and back camera
    placements of the non-overlapping rig; 0.1 m horizontal baselines and
    the default Intrinsics."""
    return CameraRig(
        cameras=[
            Camera(D=np.zeros(3), R=np.eye(3)),
            Camera(D=np.array([BASELINE_M, 0.0, 0.0]), R=np.eye(3)),
            Camera(D=np.array([0.0, 0.0, -BASELINE_M]), R=rot_from_angles([0.0, np.pi, 0.0])),
            Camera(D=np.array([BASELINE_M, 0.0, -BASELINE_M]),
                   R=rot_from_angles([0.0, np.pi, 0.0])),
        ],
        layout="overlapping",
    )

