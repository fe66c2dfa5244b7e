"""Stereo-pair geometry: fundamental matrices from calibration, epipolar
validation, and midpoint triangulation.

The fundamental matrix of a rigidly mounted pair depends only on the fixed
relative extrinsics, so it is computed once per pair and reused for the
whole sequence. Triangulation casts each match's two rays through
geometry.back_project from the camera placements implied by the current
pose estimate, keeping structure consistent with the pose: one call takes
the matches of every pair of a CameraStack.
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraStack, axis_sum, back_project, rot_from_angles

# Rays closer to parallel than this angle (radians) cannot be intersected.
PARALLEL_TOL = 1e-8


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def fundamental_from_calib(cams: CameraStack, a: int, b: int) -> np.ndarray:
    """F = K_b^-T [t]x R K_a^-1 from the fixed relative extrinsics of cameras
    a and b of a CameraStack: the rank-2 matrix mapping homogeneous pixels
    of camera a to epipolar lines in camera b, normalized to unit Frobenius
    norm. The two cameras must not share a center, which CameraRig checks
    of every stereo pair of an overlapping rig."""
    rel_rot = cams.R[b].T @ cams.R[a]
    rel_t = cams.R[b].T @ (cams.D[a] - cams.D[b])
    essential = _skew(rel_t) @ rel_rot
    k_a_inv, k_b_inv = (np.linalg.inv([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
                        for fx, fy, cx, cy in cams.pinhole[[a, b]])
    fundamental = k_b_inv.T @ essential @ k_a_inv
    fundamental /= np.linalg.norm(fundamental)
    return fundamental


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


def triangulate_batch(poses, cams: CameraStack, seg_a, seg_b, uv_a, uv_b):
    """Midpoint triangulation of the matched pixels uv_a and uv_b (N, 2),
    seen by cameras seg_a and seg_b of a CameraStack whose bodies are at the
    pose rows poses (B, 6). Every sum is written over a component axis, so
    a match's point and flag do not depend on the rest of the batch.

    Returns (points (N, 3) world frame, valid mask (N,)). Invalid entries
    are near-parallel rays or points with nonpositive depth in either view.
    """
    poses = np.asarray(poses, dtype=float)
    rot, d = rot_from_angles(poses[:, 3:]), poses[:, :3]
    # component-major centers and rays, (3, N) each
    c_a, w_a = (v.T for v in back_project(np.reshape(uv_a, (-1, 2)), rot, d, cams, seg_a))
    c_b, w_b = (v.T for v in back_project(np.reshape(uv_b, (-1, 2)), rot, d, cams, seg_b))

    # Least-squares ray parameters: minimize |c_a + s w_a - c_b - t w_b|.
    waa, wbb, wab = (axis_sum(u * v, 0) for u, v in ((w_a, w_a), (w_b, w_b), (w_a, w_b)))
    n = c_b - c_a
    rhs_a, rhs_b = axis_sum(w_a * n, 0), axis_sum(w_b * n, 0)
    det = waa * wbb - wab**2
    # det = |w_a|^2 |w_b|^2 sin^2(theta)
    ok = det > (PARALLEL_TOL**2) * waa * wbb
    det_safe = np.where(ok, det, 1.0)
    s = (wbb * rhs_a - wab * rhs_b) / det_safe
    t = (wab * rhs_a - waa * rhs_b) / det_safe
    ok &= (s > 0) & (t > 0)
    points = 0.5 * (c_a + s * w_a + c_b + t * w_b)
    return points.T, ok
