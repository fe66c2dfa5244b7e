"""Rigidity-constraint fusion for the non-overlapping layout.

Each camera k of a rigid four-camera rig estimates its own motion, a local
pose row (l_kj, angles of r_kj) in its initial frame, up to a per-camera
translation scale. The chains hand over all their local poses as one
array (F, 4, 6). Because the rig is rigid, every camera's rotation maps to
the body axes by the change of basis R_k r_kj R_k^T; local_to_body_pose
maps the whole array at once to the per-camera body poses (unit scales).
The translations are tied together by

    S_j d_j - S_kj R_k l_kj = (I - R_j) D_k      (one 3-vector row per k)

whose nine scalar components in the three non-reference cameras form a
9x4 linear system in the unknown scales s = (S_j, S_2j, S_3j, S_4j).
fuse_series builds the RC series of a run: the per-axis medians of the
body angles (the fused rotations) and all frames' systems in one call
each, then fuse_pose solves one frame's system and gives the fused pose:
those median angles and the reference translation rescaled by the solved
S_j.

The system loses rank on pure-rotation or zero-translation frames; the
solver flags those, judging the condition from the least-squares solver's
own singular values, and the frame keeps the previous frame's scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned
from .geometry import (
    CameraStack,
    camera_placement,
    change_basis,
    euler_angles,
    rot_from_angles,
)

COND_LIMIT = 1e12          # on A^T A
MIN_TRANSLATION = 1e-5     # |d_j| below this cannot anchor the scales
MIN_RHS = 1e-12            # |b| below this means scale is unobservable


def true_local_pose(pose, cams: CameraStack) -> np.ndarray:
    """Ground-truth local poses (S, 6) = (l_kj, angles of r_kj) of every
    camera of a stack for a given body pose row (6,)."""
    pose = np.asarray(pose, dtype=float)
    center, orient = camera_placement(rot_from_angles(pose[3:]), pose[:3], cams)
    rt = np.swapaxes(cams.R, -1, -2)
    l = (rt @ (center - cams.D)[..., None])[..., 0]
    return np.concatenate([l, euler_angles(rt @ orient)], axis=-1)


def local_to_body_pose(local: np.ndarray, cams: CameraStack):
    """Body poses (..., S, 6) implied by the cameras' local poses (..., S, 6),
    entry s of axis -2 from camera s of the stack, with unit scales.

    Rotation comes from the change of basis; translation from the rigidity
    relation d_j = R_k l_kj + (I - R_kj) D_k with both scales at 1. Raises
    GimbalProximity if any body rotation is near gimbal lock.
    """
    body_rot = change_basis(cams.R, rot_from_angles(local[..., 3:]))
    d = (cams.R @ local[..., :3, None] + (np.eye(3) - body_rot) @ cams.D[:, :, None])[..., 0]
    return np.concatenate([d, euler_angles(body_rot)], axis=-1)


def fuse_rotation_median(angle_sets: np.ndarray) -> np.ndarray:
    """Per-axis medians (..., 3) of the angles (..., N, 3) of N equivalent
    rotations.

    With an even count the median is the mean of the two middle values.
    Angles lie in (-pi, pi]. A set that spans more than pi on an axis but
    fits in less than pi once its negative values are shifted by 2 pi
    straddles the +-pi seam; its median is taken on the shifted values and
    wrapped back.
    """
    shifted = np.where(angle_sets < 0, angle_sets + 2 * np.pi, angle_sets)
    seam = (np.ptp(angle_sets, axis=-2) > np.pi) & (np.ptp(shifted, axis=-2) < np.pi)
    fused = np.median(np.where(seam[..., None, :], shifted, angle_sets), axis=-2)
    return np.where(fused > np.pi, fused - 2 * np.pi, fused)


def build_scale_system(d_j, rot_j, l, cams: CameraStack):
    """Assemble the 9x4 systems (A (..., 9, 4), b (..., 9)) of a stack of
    frames from the reference translation estimates d_j (..., 3), the
    (fused) body rotations rot_j (..., 3, 3), and the local translations
    l (..., 3, 3) of the non-reference cameras 1..3 of the stack.

    Row block 3i..3i+2 holds camera (i+1)'s x/y/z components: column 0 is
    d_j, column 1+i is -(R_k l_kj), and b is (I - R_j) D_k, so A s = b is
    exactly the rigidity relation per camera.
    """
    batch = d_j.shape[:-1]
    a = np.zeros(batch + (3, 3, 4))
    a[..., 0] = d_j[..., None, :]
    cols = -(cams.R[1:] @ l[..., None])[..., 0]
    # Advanced indices split by a slice put the camera axis first.
    a[..., np.arange(3), :, np.arange(1, 4)] = np.moveaxis(cols, -2, 0)
    b = ((np.eye(3) - rot_j)[..., None, :, :] @ cams.D[1:, :, None])[..., 0]
    return a.reshape(batch + (9, 4)), b.reshape(batch + (9,))


def solve_scales(a, b, d_j):
    """Least-squares scales s minimizing |A s - b|, with degeneracy guards.
    Returns (s, residual |A s - b|, condition of A^T A), the condition from
    the solver's singular values.

    Raises IllConditioned when A^T A is numerically rank deficient, when
    the reference translation is too small to anchor the scales, or when
    the right-hand side vanishes (no rotation: the homogeneous system
    admits only the meaningless s = 0).
    """
    s, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
    condition = float((sv[0] / sv[-1]) ** 2) if sv[-1] > 0 else np.inf
    if condition >= COND_LIMIT:
        raise IllConditioned(f"cond(A^T A) = {condition:.3g}")
    if np.linalg.norm(d_j) < MIN_TRANSLATION:
        raise IllConditioned("reference translation too small to resolve scale")
    if np.abs(b).max() < MIN_RHS:
        raise IllConditioned("zero right-hand side: scale unobservable without rotation")
    return s, float(np.linalg.norm(a @ s - b)), condition


@dataclass
class FusionResult:
    pose: np.ndarray   # the fused body pose row (6,)
    scales: np.ndarray
    ill_conditioned: bool
    residual: float | None


def fuse_pose(a, b, d_ref, angles, prev_scales) -> FusionResult:
    """Fuse one frame of the four cameras into one body pose.

    a (9, 4) and b (9,) are the frame's scale system (build_scale_system),
    d_ref (3,) the reference camera's local translation and angles (3,)
    the fused rotation's angles (fuse_rotation_median). The translation is
    S_j d_ref, with S_j solved from the system, or carried over from
    prev_scales when the frame is degenerate (with no residual).
    """
    try:
        scales, residual, _ = solve_scales(a, b, d_ref)
        ill = False
    except IllConditioned:
        scales, residual, ill = prev_scales, None, True
    return FusionResult(
        pose=np.concatenate([scales[0] * d_ref, angles]),
        scales=scales,
        ill_conditioned=ill,
        residual=residual,
    )


def fuse_series(locals_: np.ndarray, body: np.ndarray, cams: CameraStack):
    """The RC series of a run from the chains' local poses (F, 4, 6) and
    their body poses (F, 4, 6) (local_to_body_pose).

    Returns the fused poses (F, 6), frame 0 at the identity, and one record
    per frame: frame 0 holds unit scales, each later frame its scales, its
    ill_conditioned flag and its residual. A degenerate frame keeps the
    previous frame's scales.
    """
    x, records = np.zeros((len(locals_), 6)), [{"scales": [1.0] * 4}]
    angles, d_ref = fuse_rotation_median(body[1:, :, 3:]), locals_[1:, 0, :3]
    a, b = build_scale_system(d_ref, rot_from_angles(angles), locals_[1:, 1:, :3], cams)
    scales = np.ones(4)
    for j in range(1, len(locals_)):
        fused = fuse_pose(a[j - 1], b[j - 1], d_ref[j - 1], angles[j - 1], scales)
        x[j], scales = fused.pose, fused.scales
        records.append({"scales": [float(s) for s in scales],
                        "ill_conditioned": fused.ill_conditioned, "residual": fused.residual})
    return x, records
