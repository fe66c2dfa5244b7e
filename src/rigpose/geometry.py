"""Rig geometry: rotations, rigid transforms, and pinhole projection.

Coordinate conventions used across the package:

* World frame: the reference camera's frame at frame 0 (x right, y down,
  z along the reference optical axis). All pose parameters are expressed
  with respect to this frame.
* Camera frame: standard computer vision (x right, y down, z forward).
* A body pose is (d, angles): translation d of the reference camera and
  rotation angles (alpha, beta, gamma) about the world x/y/z axes with
  composition R = Rx(alpha) @ Ry(beta) @ Rz(gamma).
* A point M (world) seen by the reference camera at pose (d, R) has camera
  coordinates P = R^T (M - d). Camera k of the rig, mounted at displacement
  D_k with fixed rotation R_k, sees P_k = R_k^T R^T (M - d - R D_k).
* Pixels: u = fx * x/z + cx, v = fy * y/z + cy.

Angle decomposition is only valid away from |beta| = pi/2; the per-frame
motion regime of this package stays far inside that bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCamera,
    InputError,
    InvalidCameraIndex,
    GimbalProximity,
    NonOrthonormalInput,
)

# Orthonormality guard used wherever a rotation matrix is accepted as input.
ORTHO_TOL = 1e-6
# Points closer to the image plane than this are treated as invisible.
Z_MIN = 1e-6
# |cos(beta)| below this is gimbal proximity for the Euler decomposition.
GIMBAL_TOL = 1e-6


def _axis(i: int, c, s, one: float) -> np.ndarray:
    """Stacked rotations (..., 3, 3) about axis i with cosines c and sines s
    (...,); with (c, s, one) = (0, 1, 0) the axis generator K_i instead."""
    j, k = [(1, 2), (2, 0), (0, 1)][i]
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., i, i] = one
    m[..., j, j] = m[..., k, k] = c
    m[..., j, k] = -s
    m[..., k, j] = s
    return m


# dR_i/d(theta) = K_i R_i = R_i K_i for the rotation R_i about axis i
_GENERATORS = [_axis(i, 0.0, 1.0, 0.0) for i in range(3)]


def rot_y(b: float) -> np.ndarray:
    return _axis(1, np.cos(b), np.sin(b), 1.0)


def rot_from_angles(angles) -> np.ndarray:
    """Build the rotation matrix R = Rx(alpha) @ Ry(beta) @ Rz(gamma); angles
    (..., 3) give rotations (..., 3, 3)."""
    angles = np.asarray(angles, dtype=float)
    rx, ry, rz = (_axis(i, np.cos(angles[..., i]), np.sin(angles[..., i]), 1.0) for i in range(3))
    return rx @ ry @ rz


def rot_with_derivatives(angles) -> tuple[np.ndarray, np.ndarray]:
    """rot_from_angles(angles) and its partial derivatives, shape (..., 3, 3, 3),
    from one evaluation of the three axis rotations.

    Entry [..., i, :, :] of the derivatives is dR/d(angles[..., i]). A generator
    only permutes and negates, so each has the bits of the product with dR_i.
    """
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    rx, ry, rz = (_axis(i, c[..., i], s[..., i], 1.0) for i in range(3))
    kx, ky, kz = _GENERATORS
    rot = rx @ ry @ rz
    return rot, np.stack([kx @ rot, rx @ ky @ ry @ rz, rot @ kz], axis=-3)


def check_rotation(rot: np.ndarray, tol: float = ORTHO_TOL) -> None:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise NonOrthonormalInput(f"expected 3x3 rotation, got shape {rot.shape}")
    err = np.abs(rot @ rot.T - np.eye(3)).max()
    if not np.isfinite(err) or err > tol:
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


def angles_from_rot(rot) -> np.ndarray:
    """euler_angles of a matrix from outside the package.

    Raises NonOrthonormalInput for non-rotations and GimbalProximity when
    |cos(beta)| falls below GIMBAL_TOL.
    """
    rot = np.asarray(rot, dtype=float)
    check_rotation(rot)
    return euler_angles(rot)


def change_basis(rot_k: np.ndarray, rot_local: np.ndarray) -> np.ndarray:
    """R_k @ r @ R_k^T: camera-local rotations expressed about the reference
    axes; both may be stacks (..., 3, 3). Does not check its inputs: for
    rotations the package built itself."""
    return rot_k @ rot_local @ np.swapaxes(rot_k, -1, -2)


def equivalent_rotation(rot_k, rot_local) -> np.ndarray:
    """change_basis of matrices from outside the package; raises
    NonOrthonormalInput unless both are rotations."""
    check_rotation(rot_k)
    check_rotation(rot_local)
    return change_basis(np.asarray(rot_k, dtype=float), np.asarray(rot_local, dtype=float))


@dataclass
class Pose:
    """Reference-camera pose: translation d (m) and angles (rad) in the world frame."""

    d: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float).reshape(3)
        self.angles = np.asarray(self.angles, dtype=float).reshape(3)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_vector(cls, v) -> "Pose":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(v[:3], v[3:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.d, self.angles])

    def rotation(self) -> np.ndarray:
        return rot_from_angles(self.angles)


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
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise InputError("intrinsics fx, fy, cx and cy must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InputError("focal length must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise InputError("principal point outside image bounds")

    def k_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


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
        check_rotation(self.R, tol=1e-9)


@dataclass
class CameraRig:
    """Ordered camera list; entry 0 is the reference camera (D = 0, R = I)."""

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

    def __len__(self) -> int:
        return len(self.cameras)

    def camera(self, k: int) -> Camera:
        if not 0 <= k < len(self.cameras):
            raise InvalidCameraIndex(f"camera index {k} out of range 0..{len(self.cameras) - 1}")
        return self.cameras[k]

    def stereo_pairs(self) -> list[tuple[int, int]]:
        """Consecutive-camera pairing convention for overlapping rigs."""
        if self.layout != "overlapping":
            raise InputError("stereo pairs are only defined for overlapping rigs")
        if len(self.cameras) % 2:
            raise InputError("overlapping rig needs an even camera count")
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


def _pinhole(p_cam: np.ndarray, fx, fy, cx, cy) -> np.ndarray:
    x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
    uv = np.empty(z.shape + (2,))
    uv[..., 0] = fx * x / z + cx
    uv[..., 1] = fy * y / z + cy
    return uv


def pinhole_derivatives(p_cam: np.ndarray, dp: np.ndarray, fx, fy) -> np.ndarray:
    """The chain rule through the pinhole, in closed form: pixel derivatives
    (N, 2, k) of camera-frame points p_cam (N, 3) in front of their camera,
    whose derivatives with respect to k parameters are dp (N, k, 3), with
    focal lengths fx, fy (N,): du = fx/z (dx - x/z dz), dv = fy/z (dy - y/z dz)."""
    z = p_cam[:, 2]
    out = np.empty((len(dp), 2, dp.shape[1]))
    out[:, 0] = (fx / z)[:, None] * (dp[..., 0] - (p_cam[:, 0] / z)[:, None] * dp[..., 2])
    out[:, 1] = (fy / z)[:, None] * (dp[..., 1] - (p_cam[:, 1] / z)[:, None] * dp[..., 2])
    return out


def back_project(uv: np.ndarray, intr: Intrinsics, depth) -> np.ndarray:
    """The inverse pinhole: camera-frame points (..., 3) at depth z = depth
    on the rays of pixels uv (..., 2)."""
    xn = (uv[..., 0] - intr.cx) / intr.fx
    yn = (uv[..., 1] - intr.cy) / intr.fy
    return depth * np.stack([xn, yn, np.ones_like(xn)], axis=-1)


def view_points(points, rot: np.ndarray, d: np.ndarray, cam, seg=None):
    """World points (..., 3) seen through rig camera cam with the body at
    translation d and rotation rot: the one placement-and-pinhole kernel.

    Returns (p_cam, uv): camera-frame points P_k = W^T (M - C), with C and
    W from camera_placement, and their pixels. Pixels of points with depth
    <= Z_MIN carry no meaning; callers mask or reject those points by
    p_cam[..., 2].

    With seg (N,), cam is a CameraStack, rot (B, 3, 3) and d (B, 3) stack
    the body poses and point i of points (N, 3) is seen by camera seg[i].
    Each P is an elementwise three-term sum over the rows of its camera's
    W, and only the M points in front (depth > Z_MIN) get pixels: returns
    (p_cam (N, 3), uv (M, 2), front (N,), W (S, 3, 3) of each camera).
    """
    if seg is None:
        center, orient = camera_placement(rot, d, cam)
        p_cam = (points - center) @ orient
        intr = cam.intrinsics
        return p_cam, _pinhole(p_cam, intr.fx, intr.fy, intr.cx, intr.cy)
    center, orient = camera_placement(rot[cam.body], d[cam.body], cam)
    # component-major, points last: w[c, i, n] is W[i, c] of point n's camera
    w = np.take(orient.T, seg, axis=-1)
    m = points.T - np.take(center.T, seg, axis=-1)
    p_cam = m[0] * w[:, 0] + m[1] * w[:, 1] + m[2] * w[:, 2]
    front = p_cam[2] > Z_MIN
    pinhole = np.take(cam.pinhole.T, seg[front], axis=-1)
    uv = _pinhole(np.compress(front, p_cam, axis=-1).T, *pinhole)
    return p_cam.T, uv, front, orient


def world_to_camera(pose: Pose, points) -> np.ndarray:
    """Reference-camera coordinates R^T (M - d). Accepts (..., 3) points."""
    points = np.asarray(points, dtype=float)
    return (points - pose.d) @ pose.rotation()


def world_to_camera_k(pose: Pose, rig: CameraRig, k: int, points) -> np.ndarray:
    """Camera-k coordinates R_k^T R^T (M - d - R D_k). Accepts (..., 3) points."""
    cam = rig.camera(k)
    return view_points(np.asarray(points, dtype=float), pose.rotation(), pose.d, cam)[0]


def project(points_cam, intr: Intrinsics) -> np.ndarray:
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2).

    Raises BehindCamera if any point has z <= Z_MIN.
    """
    pts = np.asarray(points_cam, dtype=float)
    if np.any(pts[..., 2] <= Z_MIN):
        raise BehindCamera("point at or behind the image plane")
    return _pinhole(pts, intr.fx, intr.fy, intr.cx, intr.cy)


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
                "fx": cam.intrinsics.fx,
                "fy": cam.intrinsics.fy,
                "cx": cam.intrinsics.cx,
                "cy": cam.intrinsics.cy,
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


def rig_from_dict(data: dict) -> CameraRig:
    if not isinstance(data, dict):
        raise InputError(f"malformed rig: expected a JSON object, got {type(data).__name__}")
    entries = data.get("cameras")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError("malformed rig: 'cameras' must be a list of objects")
    try:
        layout = data.get("layout", "overlapping")
        cameras = []
        for entry in entries:
            intr = Intrinsics(
                fx=float(entry.get("fx", 1000.0)),
                fy=float(entry.get("fy", 1000.0)),
                cx=float(entry.get("cx", 320.0)),
                cy=float(entry.get("cy", 240.0)),
                width=int(entry.get("width", 640)),
                height=int(entry.get("height", 480)),
            )
            r_angles = np.array(entry["R_angles"], dtype=float)
            if not np.all(np.isfinite(r_angles)):
                raise InputError(f"rig camera R_angles must be finite, got {r_angles}")
            cameras.append(
                Camera(
                    D=np.array(entry["D"], dtype=float),
                    R=rot_from_angles(r_angles),
                    intrinsics=intr,
                )
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed rig file: {exc}") from exc
    return CameraRig(cameras=cameras, layout=layout)


def write_rig(path, rig: CameraRig) -> None:
    with open(path, "w") as fh:
        json.dump(rig_to_dict(rig), fh, indent=2)
        fh.write("\n")


def read_rig(path) -> CameraRig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return rig_from_dict(data)


BASELINE_M = 0.1


def default_nonoverlap_rig(intrinsics: Intrinsics | None = None) -> CameraRig:
    """Four individually aimed cameras: forward, right, backward, left.

    Camera 1 (index 0) faces +z at the front of the platform; its
    back-to-back partner (camera 3) sits 0.1 m directly behind it facing
    -z, so that camera's optical axis passes through the reference point.
    The perpendicular pair (cameras 2 and 4) sits at the platform's middle
    station facing +-x, each 0.1 m from camera 1; their optical axes miss
    the reference point, which couples their rotation and translation
    estimates. The two back-to-back axes are perpendicular.
    """
    intr = intrinsics or Intrinsics()
    side_x = np.sqrt(BASELINE_M**2 - (BASELINE_M / 2) ** 2)
    side_z = -BASELINE_M / 2
    return CameraRig(
        cameras=[
            Camera(D=np.zeros(3), R=np.eye(3), intrinsics=intr),
            Camera(D=np.array([side_x, 0.0, side_z]), R=rot_y(np.pi / 2), intrinsics=intr),
            Camera(D=np.array([0.0, 0.0, -BASELINE_M]), R=rot_y(np.pi), intrinsics=intr),
            Camera(D=np.array([-side_x, 0.0, side_z]), R=rot_y(-np.pi / 2), intrinsics=intr),
        ],
        layout="non-overlapping",
    )


def default_overlap_rig(intrinsics: Intrinsics | None = None) -> CameraRig:
    """Two back-to-back stereo pairs sharing the reference and back camera
    placements of the non-overlapping rig; 0.1 m horizontal baselines."""
    intr = intrinsics or Intrinsics()
    return CameraRig(
        cameras=[
            Camera(D=np.zeros(3), R=np.eye(3), intrinsics=intr),
            Camera(D=np.array([BASELINE_M, 0.0, 0.0]), R=np.eye(3), intrinsics=intr),
            Camera(D=np.array([0.0, 0.0, -BASELINE_M]), R=rot_y(np.pi), intrinsics=intr),
            Camera(D=np.array([BASELINE_M, 0.0, -BASELINE_M]), R=rot_y(np.pi), intrinsics=intr),
        ],
        layout="overlapping",
    )

