"""Stereo-pair geometry: fundamental matrices from calibration, epipolar
validation, and midpoint triangulation.

The fundamental matrix of a rigidly mounted pair depends only on the fixed
relative extrinsics, so it is computed once per pair and reused for the
whole sequence. Triangulation casts rays from the camera placements implied
by the current pose estimate, keeping structure consistent with the pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentCenters
from .geometry import (MIN_BASELINE, Camera, CameraRig, back_project, camera_placement,
                       rot_from_angles)

# Rays closer to parallel than this angle (radians) cannot be intersected.
PARALLEL_TOL = 1e-8


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


@dataclass
class StereoPair:
    """Cameras a and b of a rig and their fundamental matrix F (3, 3)."""

    cam_a: int
    cam_b: int
    F: np.ndarray


def fundamental_from_calib(rig: CameraRig, a: int, b: int) -> np.ndarray:
    """F = K_b^-T [t]x R K_a^-1 from the pair's fixed relative extrinsics:
    the rank-2 matrix mapping homogeneous pixels of camera a to epipolar
    lines in camera b, normalized to unit Frobenius norm."""
    cam_a, cam_b = rig.camera(a), rig.camera(b)
    if np.linalg.norm(cam_a.D - cam_b.D) < MIN_BASELINE:
        raise CoincidentCenters(f"cameras {a} and {b} have coincident centers")
    rel_rot = cam_b.R.T @ cam_a.R
    rel_t = cam_b.R.T @ (cam_a.D - cam_b.D)
    essential = _skew(rel_t) @ rel_rot
    k_a_inv = np.linalg.inv(cam_a.intrinsics.k_matrix())
    k_b_inv = np.linalg.inv(cam_b.intrinsics.k_matrix())
    fundamental = k_b_inv.T @ essential @ k_a_inv
    fundamental /= np.linalg.norm(fundamental)
    return fundamental


def make_stereo_pair(rig: CameraRig, a: int, b: int) -> StereoPair:
    return StereoPair(a, b, fundamental_from_calib(rig, a, b))


def epipolar_distances(fundamental: np.ndarray, pts_a, pts_b) -> np.ndarray:
    """Distances (px) from each p_b to the epipolar line of its p_a under
    the fundamental matrix (3, 3), for matched pixel arrays (N, 2). Each
    line coefficient is a three-term sum, so a match's distance has the
    same bits in any batch.

    A line with vanishing direction coefficients has no distance to
    measure; its entry is inf, so no gate accepts that match.
    """
    (u_a, v_a), (u_b, v_b) = np.asarray(pts_a, dtype=float).T, np.asarray(pts_b, dtype=float).T
    l0, l1, l2 = (f[0] * u_a + f[1] * v_a + f[2] for f in fundamental)
    norms = np.hypot(l0, l1)
    num = np.abs(l0 * u_b + l1 * v_b + l2)
    return np.divide(num, norms, out=np.full_like(num, np.inf), where=norms >= 1e-15)


def _back_project_rays(rot: np.ndarray, d: np.ndarray, cam: Camera, pixels: np.ndarray):
    """World-frame camera center and unnormalized ray directions with unit
    depth along the optical axis (so the ray parameter equals depth)."""
    center, orient = camera_placement(rot, d, cam)
    return center, back_project(pixels, cam.intrinsics, 1.0) @ orient.T


def triangulate_batch(
    rig: CameraRig, pose, pair: StereoPair, pts_a, pts_b
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of matched pixel arrays (N, 2) with the body at
    the pose row (6,).

    Returns (points (N, 3) world frame, valid mask (N,)). Invalid entries
    are near-parallel rays or points with nonpositive depth in either view.
    """
    pts_a = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    pose = np.asarray(pose, dtype=float)
    rot = rot_from_angles(pose[3:])
    c_a, w_a = _back_project_rays(rot, pose[:3], rig.camera(pair.cam_a), pts_a)
    c_b, w_b = _back_project_rays(rot, pose[:3], rig.camera(pair.cam_b), pts_b)

    # Least-squares ray parameters: minimize |c_a + s w_a - c_b - t w_b|.
    waa = np.einsum("ni,ni->n", w_a, w_a)
    wbb = np.einsum("ni,ni->n", w_b, w_b)
    wab = np.einsum("ni,ni->n", w_a, w_b)
    n = c_b - c_a
    rhs_a = w_a @ n
    rhs_b = w_b @ n
    det = waa * wbb - wab**2
    # det = |w_a|^2 |w_b|^2 sin^2(theta)
    ok = det > (PARALLEL_TOL**2) * waa * wbb
    det_safe = np.where(ok, det, 1.0)
    s = (wbb * rhs_a - wab * rhs_b) / det_safe
    t = (wab * rhs_a - waa * rhs_b) / det_safe
    ok &= (s > 0) & (t > 0)
    points = 0.5 * (c_a + s[:, None] * w_a + c_b + t[:, None] * w_b)
    return points, ok

