"""Rigidity-constraint fusion for the non-overlapping layout.

Each camera k of a rigid four-camera rig estimates its own motion
(l_kj, r_kj) in its initial frame, up to a per-camera translation scale.
Because the rig is rigid, every camera's rotation maps to the body axes by
the change of basis R_k r_kj R_k^T, and the translations are tied together
by

    S_j d_j - S_kj R_k l_kj = (I - R_j) D_k      (one 3-vector row per k)

whose nine scalar components in the three non-reference cameras form a
9x4 linear system in the unknown scales s = (S_j, S_2j, S_3j, S_4j). The
fused body pose takes the per-axis median of the four equivalent rotations
and the reference translation rescaled by the solved S_j.

The system loses rank on pure-rotation or zero-translation frames; the
solver flags those and the caller falls back to the previous frame's
scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditioned, MissingCamera, WrongCameraCount
from .geometry import (
    Camera,
    CameraRig,
    Pose,
    camera_placement,
    change_basis,
    euler_angles,
)

COND_LIMIT = 1e12          # on A^T A
MIN_TRANSLATION = 1e-5     # |d_j| below this cannot anchor the scales
MIN_RHS = 1e-12            # |b| below this means scale is unobservable


@dataclass
class CameraLocalPose:
    """Camera k's motion at one frame, in its own initial frame."""

    k: int
    l: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.l = np.asarray(self.l, dtype=float).reshape(3)
        self.r = np.asarray(self.r, dtype=float).reshape(3, 3)


def true_local_pose(pose: Pose, cam: Camera, k: int = 0) -> CameraLocalPose:
    """Ground-truth (l_kj, r_kj) of a rig camera for a given body pose."""
    center, orient = camera_placement(pose.rotation(), pose.d, cam)
    l = cam.R.T @ (center - cam.D)
    r = cam.R.T @ orient
    return CameraLocalPose(k=k, l=l, r=r)


def local_to_body_pose(local: CameraLocalPose, cam: Camera) -> Pose:
    """Body pose implied by a single camera's local motion (unit scales).

    Rotation comes from the change of basis; translation from the rigidity
    relation d_j = R_k l_kj + (I - R_kj) D_k with both scales at 1.
    """
    body_rot = change_basis(cam.R, local.r)
    d = cam.R @ local.l + (np.eye(3) - body_rot) @ cam.D
    return Pose(d, euler_angles(body_rot))


def fuse_rotation_median(rotations) -> np.ndarray:
    """Per-axis median of the decomposed angles of equivalent rotations.

    With an even count the median is the mean of the two middle values.
    Angles lie in (-pi, pi]. A set that spans more than pi on an axis but
    fits in less than pi once its negative values are shifted by 2 pi
    straddles the +-pi seam; its median is taken on the shifted values and
    wrapped back.
    """
    angle_sets = np.array([euler_angles(np.asarray(r, float)) for r in rotations])
    shifted = np.where(angle_sets < 0, angle_sets + 2 * np.pi, angle_sets)
    seam = (np.ptp(angle_sets, axis=0) > np.pi) & (np.ptp(shifted, axis=0) < np.pi)
    fused = np.median(np.where(seam, shifted, angle_sets), axis=0)
    return np.where(fused > np.pi, fused - 2 * np.pi, fused)


@dataclass
class ScaleSystem:
    """The stacked linear system A s = b tying the four translation scales."""

    A: np.ndarray
    b: np.ndarray
    d_j: np.ndarray
    s: np.ndarray | None = None
    residual: float | None = None
    condition: float = field(default=np.inf)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(9, 4)
        self.b = np.asarray(self.b, dtype=float).reshape(9)
        self.d_j = np.asarray(self.d_j, dtype=float).reshape(3)
        sv = np.linalg.svd(self.A, compute_uv=False)
        if sv[-1] > 0:
            self.condition = float((sv[0] / sv[-1]) ** 2)


def build_scale_system(d_j, rot_j, locals_, rig: CameraRig) -> ScaleSystem:
    """Assemble the 9x4 system from the reference translation estimate,
    the (fused) body rotation, and the three non-reference local poses.

    Row block 3i..3i+2 holds camera (i+1)'s x/y/z components: column 0 is
    d_j, column 1+i is -(R_k l_kj), and b is (I - R_j) D_k, so A s = b is
    exactly the rigidity relation per camera.
    """
    if len(locals_) != 3:
        raise WrongCameraCount(f"need the 3 non-reference cameras, got {len(locals_)}")
    d_j = np.asarray(d_j, dtype=float).reshape(3)
    rot_j = np.asarray(rot_j, dtype=float).reshape(3, 3)
    a = np.zeros((9, 4))
    b = np.zeros(9)
    i_minus_r = np.eye(3) - rot_j
    expected_k = (1, 2, 3)
    for i, local in enumerate(sorted(locals_, key=lambda c: c.k)):
        if local.k != expected_k[i]:
            raise WrongCameraCount(f"expected cameras {expected_k}, got index {local.k}")
        cam = rig.camera(local.k)
        rows = slice(3 * i, 3 * i + 3)
        a[rows, 0] = d_j
        a[rows, 1 + i] = -(cam.R @ local.l)
        b[rows] = i_minus_r @ cam.D
    return ScaleSystem(A=a, b=b, d_j=d_j)


def solve_scales(system: ScaleSystem) -> np.ndarray:
    """Least-squares scales minimizing |A s - b|, with degeneracy guards.

    Raises IllConditioned when A^T A is numerically rank deficient, when
    the reference translation is too small to anchor the scales, or when
    the right-hand side vanishes (no rotation: the homogeneous system
    admits only the meaningless s = 0).
    """
    if system.condition >= COND_LIMIT:
        raise IllConditioned(f"cond(A^T A) = {system.condition:.3g}")
    if np.linalg.norm(system.d_j) < MIN_TRANSLATION:
        raise IllConditioned("reference translation too small to resolve scale")
    if np.abs(system.b).max() < MIN_RHS:
        raise IllConditioned("zero right-hand side: scale unobservable without rotation")
    s, *_ = np.linalg.lstsq(system.A, system.b, rcond=None)
    system.s = s
    system.residual = float(np.linalg.norm(system.A @ s - system.b))
    return s


@dataclass
class FusionResult:
    pose: Pose
    scales: np.ndarray
    ill_conditioned: bool
    residual: float | None


def fuse_pose(per_camera_poses, rig: CameraRig, prev_scales) -> FusionResult:
    """Fuse all four cameras' local poses into one body pose.

    per_camera_poses: sequence of (CameraLocalPose, equivalent rotation),
    one per rig camera. Rotation is the per-axis median over all cameras;
    translation is S_j times the reference camera's estimated translation,
    with S_j from the scale system (or carried over from prev_scales when
    the frame is degenerate).
    """
    if len(per_camera_poses) != len(rig.cameras):
        raise MissingCamera(
            f"fusion needs {len(rig.cameras)} camera poses, got {len(per_camera_poses)}"
        )
    by_k = {local.k: (local, eq_rot) for local, eq_rot in per_camera_poses}
    if sorted(by_k) != list(range(len(rig.cameras))):
        raise MissingCamera(f"camera poses present for {sorted(by_k)}")

    fused_angles = fuse_rotation_median([eq for _, eq in per_camera_poses])
    rot_j = Pose(np.zeros(3), fused_angles).rotation()
    d_ref = by_k[0][0].l

    prev_scales = np.asarray(prev_scales, dtype=float).reshape(4)
    system = build_scale_system(d_ref, rot_j, [by_k[k][0] for k in (1, 2, 3)], rig)
    try:
        scales = solve_scales(system)
        ill = False
    except IllConditioned:
        scales = prev_scales
        ill = True
    return FusionResult(
        pose=Pose(scales[0] * d_ref, fused_angles),
        scales=scales,
        ill_conditioned=ill,
        residual=system.residual,
    )
