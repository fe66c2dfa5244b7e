"""Recursive estimators: stacks of 12-state pose EKFs and 3-state structure EKFs.

Pose state layout: x = (tx, ty, tz, alpha, beta, gamma, and their per-frame
derivatives), so x[:6] is the pose and x[6:] its velocity. The plant is
constant velocity: pose += velocity each frame. Measurements are pixel
locations of features with known 3D structure, so the measurement model is
the rig transform composed with pinhole projection (geometry.view_points);
its Jacobian w.r.t. the six pose parameters is analytic. The velocity
states do not enter the measurement, so the update works on the 6x6 pose
block W = P[:6, :6] with the six pose columns J alone: in information
form (well conditioned for large measurement counts and small pixel
variance) it inverts W and W^-1 + J^T J / r, two 6x6 matrices. The
covariance is propagated in Joseph form, which preserves symmetry and
positive semidefiniteness for any gain. The prediction is block sums on
the same partition.

Filters come in stacks of B: PoseFilterState holds x (B, 12) and
P (B, 12, 12), and a measurement batch is flat over segments, each one
camera of one filter (geometry.CameraStack): the four monocular chains
are a stack of four with a camera each, the stereo rig a stack of one with
a segment per camera. Prediction, measurement and the structure update
each run once per frame for the whole stack, building each filter's
rotation once per call. The two kernels that place cameras at a state,
measure and structure_update_batch, place them once and own the depth
mask: a point at depth <= Z_MIN in its camera gets no pixel, no row and
no update, and no caller places the same points again to find it. Both
kernels are elementwise: each point's camera coefficients are gathered
once, points last, and every product with a 3-vector or a 3x3 matrix is a
written-out three-term sum, with no einsum and no per-point matmul, so a
point's bits do not depend on the rest of its batch. pose_update sums a
filter's measurement rows (J^T J and J^T innovation) per filter, on its
contiguous slice: on a zero-padded stack they would sum in another order,
and a filter must get the same bits whatever else is in its stack.

Structure filters are 3-state per-point estimators updated with the pose
held fixed; a whole stack's feature sets update in one vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_config_fields
from .geometry import (
    CameraStack,
    pinhole_derivatives,
    rot_from_angles,
    rot_with_derivatives,
    view_points,
)

N_STATE = 12


@dataclass
class FilterTuning:
    """Noise and initialization parameters for the filters (per frame units)."""

    q_pose: float = 1e-6        # process noise on pose components (m^2, rad^2)
    q_vel: float = 1e-4         # process noise on derivative components
    r_px: float = 0.5           # measurement noise std per pixel coordinate
    p0_pose: float = 1e-4       # initial pose variance
    p0_vel: float = 1e-4        # initial derivative variance
    p0_struct_lateral: float = 1e-2   # initial structure variance, image-plane axes (m^2)
    p0_struct_depth: float = 0.25     # initial structure variance, depth axis (m^2)

    def __post_init__(self):
        variances = ("q_pose", "q_vel", "p0_pose", "p0_vel",
                     "p0_struct_lateral", "p0_struct_depth")
        check_config_fields(
            self, "tuning", at_least=dict.fromkeys(variances, 0), positive=("r_px",)
        )

    def process_noise(self) -> np.ndarray:
        return np.diag([self.q_pose] * 6 + [self.q_vel] * 6)

    def initial_covariance(self) -> np.ndarray:
        return np.diag([self.p0_pose] * 6 + [self.p0_vel] * 6)


@dataclass
class PoseFilterState:
    """A stack of B pose EKFs: states x (B, 12) and covariances P (B, 12, 12),
    sharing the process noise Q and the pixel variance r_var."""

    x: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    r_var: float


def make_pose_filter(pose_vecs, vel_vecs, tuning: FilterTuning) -> PoseFilterState:
    """Filters seeded at poses (B, 6) with velocities (B, 6); a single (6,)
    pose and velocity give a stack of one."""
    x = np.concatenate([np.atleast_2d(pose_vecs), np.atleast_2d(vel_vecs)], axis=-1)
    p = np.repeat(tuning.initial_covariance()[None], len(x), axis=0)
    return PoseFilterState(x, p, tuning.process_noise(), tuning.r_px**2)


def pose_predict(state: PoseFilterState) -> PoseFilterState:
    """Constant-velocity prediction of every filter: pose += velocity,
    P <- A P A^T + Q with A = [[I, I], [0, I]], written as block sums."""
    x = state.x.copy()
    x[:, :6] += x[:, 6:]
    p = state.P.copy()
    p[:, :6] += p[:, 6:]         # A P
    p[:, :, :6] += p[:, :, 6:]   # (A P) A^T
    p += state.Q
    return PoseFilterState(x, 0.5 * (p + np.swapaxes(p, 1, 2)), state.Q, state.r_var)


@dataclass
class MeasurementBatch:
    """Pixel measurements of known-structure features linearised at the
    states x they were measured at, flat over segments: feature ids[i], seen
    by camera seg[i] of a CameraStack, leaves innovation[i] (observed minus
    predicted pixel) with pose Jacobian jac[i] (2, 6). Rows are grouped by
    segment and segments by filter, so each filter's rows are one contiguous
    slice."""

    ids: np.ndarray
    seg: np.ndarray
    innovation: np.ndarray
    jac: np.ndarray

    @property
    def n_rows(self) -> int:
        return 2 * len(self.ids)


def pose_measurement_rows(x: np.ndarray, cams: CameraStack, seg, points: np.ndarray):
    """Predicted pixels and the analytic pose Jacobian of a segmented batch:
    point i is seen by camera seg[i] at its filter's pose x[cams.body[seg[i]], :6].

    Returns (uv (M, 2), jac (M, 2, 6), front (N,)): the pixels and the
    d(pixel)/d(d, angles) rows of the M points in front (depth > Z_MIN).
    Each point's derivatives are elementwise sums of its camera's
    coefficients, so its bits do not depend on the rest of the batch."""
    d = x[:, :3]
    rot, drs = rot_with_derivatives(x[:, 3:6])
    p_cam, uv, front, orient = view_points(points, rot, d, cams, seg=seg)
    sf = seg[front]
    # component-major, points last: g[l, c, i] is row l, column c of dR_i R_k
    g = np.take((drs[cams.body] @ cams.R[:, None]).transpose(2, 3, 1, 0), sf, axis=-1)
    m = np.compress(front, points.T, axis=-1) - np.take(d.T, cams.body[sf], axis=-1)
    dp = np.empty((3, 6, len(sf)))   # dp[c, q] is dP_c/dq
    dp[:, :3] = -np.take(orient.T, sf, axis=-1)   # dP_cam/dd = -W^T: row i of -W
    # dP_cam/d(angle_i) = (dR_i R_k)^T (M - d)
    dp[:, 3:] = m[0] * g[0] + m[1] * g[1] + m[2] * g[2]
    p_front = np.compress(front, p_cam.T, axis=-1).T
    focal = np.take(cams.pinhole.T[:2], sf, axis=-1)
    return uv, pinhole_derivatives(p_front, dp.T, *focal), front


def measure(x: np.ndarray, cams: CameraStack, ids, uv, seg, points) -> MeasurementBatch:
    """Linearise the observations uv (N, 2) of features ids with structure
    points (N, 3), point i seen by camera seg[i], at the filters' states x:
    one placement of every camera. Points at depth <= Z_MIN in their
    camera leave no row."""
    predicted, jac, front = pose_measurement_rows(x, cams, seg, points)
    return MeasurementBatch(ids[front], seg[front], uv[front] - predicted, jac)


def predicted_depths(x: np.ndarray, cams: CameraStack, seg, points: np.ndarray) -> np.ndarray:
    """Depth of each point in its camera at its filter's pose. No kernel
    calls it, since measure and structure_update_batch mask depths
    themselves; it stays while the benchmark tracer times it by name."""
    return view_points(points, rot_from_angles(x[:, 3:6]), x[:, :3], cams, seg=seg)[0][:, 2]


def _each(fn, mats: np.ndarray) -> np.ndarray:
    """fn on a stack of matrices in one call; a matrix it fails on gives NaN."""
    try:
        return fn(mats)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full_like(mats, np.nan)
        return np.concatenate([_each(fn, mats[b:b + 1]) for b in range(len(mats))])


def pose_update(state: PoseFilterState, batch: MeasurementBatch, cams: CameraStack):
    """EKF measurement update of every filter of the stack with its share of
    the batch: filter b takes the rows of the cameras whose body is b.

    The rows touch only the pose block W = P[:6, :6]: with J the (2n, 6)
    pose Jacobian of a filter's stacked pixel rows, H = [J 0], G = J^T J
    and h = J^T innovation, the information form on the partitioned state
    gives W+ = (W^-1 + G/r)^-1 and P+[:, :6] = P[:, :6] W^-1 W+, so
    K = P+[:, :6] J^T / r, algebraically identical to P H^T (H P H^T + R)^-1.
    The state moves by K innovation = P+[:, :6] h / r and the covariance
    follows in Joseph form with K J = P+[:, :6] G / r and
    r K K^T = (K J) P+[:, :6]^T. Only G and h are summed per filter, on its
    contiguous slice of rows; the inversions and products run on the whole
    stack.

    The batch comes from measure at state.x, so nothing is placed again.
    Returns (state, skipped (B,)). A filter without rows, or whose W or
    W^-1 + G/r cannot be inverted, or whose P+[:, :6] is not finite, keeps
    its prior and is marked skipped; an empty batch skips every filter.
    """
    bounds = np.searchsorted(cams.body[batch.seg], np.arange(len(state.x) + 1))
    g, h = np.zeros((len(state.x), 6, 6)), np.zeros((len(state.x), 6))
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        j = batch.jac[lo:hi].reshape(-1, 6)
        g[b] = j.T @ j
        h[b] = j.T @ batch.innovation[lo:hi].reshape(-1)
    r = state.r_var
    w_inv = _each(np.linalg.inv, state.P[:, :6, :6])
    p_cols = state.P[:, :, :6] @ w_inv @ _each(np.linalg.inv, w_inv + g / r)
    skipped = (bounds[:-1] == bounds[1:]) | ~np.isfinite(p_cols).all(axis=(1, 2))
    x = state.x + (p_cols @ h[..., None])[..., 0] / r
    kj = p_cols @ g / r
    ikh = np.repeat(np.eye(N_STATE)[None], len(x), axis=0)
    ikh[:, :, :6] -= kj
    p = ikh @ state.P @ np.swapaxes(ikh, 1, 2) + kj @ np.swapaxes(p_cols, 1, 2)
    p = 0.5 * (p + np.swapaxes(p, 1, 2))
    return (PoseFilterState(np.where(skipped[:, None], state.x, x),
                            np.where(skipped[:, None, None], state.P, p), state.Q, r),
            skipped)


# ---------------------------------------------------------------------------
# Per-point structure filters
# ---------------------------------------------------------------------------

def structure_update_batch(
    means: np.ndarray,
    covs: np.ndarray,
    observed_uv: np.ndarray,
    x: np.ndarray,
    cams: CameraStack,
    seg,
    r_var: float,
):
    """Vectorized EKF update of N independent 3-state point filters.

    Point i is seen by camera seg[i] of cams, with its filter's pose
    x[cams.body[seg[i]], :6] held fixed; each point is corrected by its own
    (u, v) observation. Points at depth <= Z_MIN in their camera are left
    out. Returns (means (M, 3), covs (M, 3, 3), front (N,)): the updated
    estimates of the M points with front[i] set, in order.
    """
    rot = rot_from_angles(x[:, 3:6])
    p_cam, predicted, front, orient = view_points(means, rot, x[:, :3], cams, seg=seg)
    sf = seg[front]
    # dP_cam/dM = W^T: row i of W. Component-major, points last, from here on
    p_front = np.compress(front, p_cam.T, axis=-1).T
    focal = np.take(cams.pinhole.T[:2], sf, axis=-1)
    j = pinhole_derivatives(p_front, np.take(orient.T, sf, axis=-1).T, *focal)
    j0, j1 = j.T.swapaxes(0, 1)
    p = np.compress(front, covs.transpose(1, 2, 0), axis=-1)   # p[r, c] is P[r, c]
    innovation = (observed_uv[front] - predicted).T
    # the columns of G = P J^T, then the 2x2 S = J P J^T + r I
    g0 = p[:, 0] * j0[0] + p[:, 1] * j0[1] + p[:, 2] * j0[2]
    g1 = p[:, 0] * j1[0] + p[:, 1] * j1[1] + p[:, 2] * j1[2]
    s00 = j0[0] * g0[0] + j0[1] * g0[1] + j0[2] * g0[2] + r_var
    s01 = j0[0] * g1[0] + j0[1] * g1[1] + j0[2] * g1[2]
    s11 = j1[0] * g1[0] + j1[1] * g1[1] + j1[2] * g1[2] + r_var
    det = s00 * s11 - s01 * s01
    k0 = (g0 * s11 - g1 * s01) / det     # the gain columns K = G S^-1
    k1 = (g1 * s00 - g0 * s01) / det
    new_means = means[front] + (k0 * innovation[0] + k1 * innovation[1]).T
    # Joseph form (I - K J) P (I - K J)^T + r K K^T, a three-term sum per product
    a = -(k0[:, None] * j0 + k1[:, None] * j1)
    for i in range(3):
        a[i, i] += 1.0
    ap = a[:, :1] * p[0] + a[:, 1:2] * p[1] + a[:, 2:] * p[2]
    cov = (ap[:, None, 0] * a[:, 0] + ap[:, None, 1] * a[:, 1] + ap[:, None, 2] * a[:, 2]
           + r_var * (k0[:, None] * k0 + k1[:, None] * k1))
    return new_means, (0.5 * (cov + cov.transpose(1, 0, 2))).T, front


def initial_structure_covariance(tuning: FilterTuning, n: int) -> np.ndarray:
    """Depth-axis-inflated initial covariance for orthographically seeded
    points, expressed in the camera axes at initialization."""
    cov = np.diag(
        [tuning.p0_struct_lateral, tuning.p0_struct_lateral, tuning.p0_struct_depth]
    )
    return np.repeat(cov[None, :, :], n, axis=0)
