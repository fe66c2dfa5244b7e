"""Recursive estimators: stacks of 12-state pose EKFs and 3-state structure EKFs.

Pose state layout: x = (tx, ty, tz, alpha, beta, gamma, and their per-frame
derivatives), so x[:6] is the pose and x[6:] its velocity. The plant is
constant velocity: pose += velocity each frame. Measurements are pixel
locations of features with known 3D structure, so the measurement model is
the rig transform composed with pinhole projection (geometry.view_points);
its Jacobian w.r.t. the six pose parameters is analytic: the camera-frame
point moves with the translation by -W^T and with each angle by a cross
product with that angle's axis (pose_measurement_rows). The velocity
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
once, component-major with the points last, and every product with a
3-vector or a 3x3 matrix is one broadcast product and one sum over the
component axis (geometry.axis_sum), with no einsum and no per-point
matmul. That axis is never the innermost, so NumPy adds its terms in index
order and the bits are those of the written-out three-term sums; a cross
product is two products of rolled components and their difference. The
written-out forms are tests/reference.py's oracle, and a point's bits do
not depend on the rest of its batch. pose_update sums a
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
    axis_sum,
    pinhole_derivatives,
    rot_from_angles,
    view_points,
)

N_STATE = 12
_EYE = np.eye(N_STATE)


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

    With R = Rx Ry Rz, angle i turns the body about the world axis a_i, so
    the camera-frame point P moves by dP/d(angle_i) = (P + R_k^T D_k) x b_i:
    the point about the body origin, in camera axes, crossed with the axis
    b_i = R_k^T R^T a_i in the same axes. R^T a_i is row 0 of R for alpha,
    (sin gamma, cos gamma, 0) for beta and e_z for gamma. Each camera's
    axes and offset R_k^T D_k come from one product per call; a point's
    derivatives are elementwise in its camera's gathered coefficients, so
    its bits do not depend on the rest of the batch."""
    rot = rot_from_angles(x[:, 3:6])
    _, uv, front, orient, (sf, p_front, pin) = view_points(points, rot, x[:, :3], cams, seg=seg)
    # rows R^T a_0, R^T a_1, R^T a_2 of each camera's body, then D_k
    rows = np.zeros((len(cams.body), 4, 3))
    rows[:, 0] = rot[cams.body, 0]
    rows[:, 1, 0], rows[:, 1, 1] = np.sin(x[cams.body, 5]), np.cos(x[cams.body, 5])
    rows[:, 2, 2] = 1.0
    rows[:, 3] = cams.D
    # component-major, points last: coef[c, r, i] is (R_k^T rows[r])_c of point i
    coef = axis_sum(rows[..., None] * cams.R[:, None], 2).T.take(sf, axis=-1)
    q, b = p_front + coef[:, 3], coef[:, :3]
    dp = np.empty((3, 6, len(sf)))   # dp[c, k] is dP_c/d(pose_k)
    dp[:, :3] = -orient.T.take(sf, axis=-1)   # dP_cam/dd = -W^T: row i of -W
    dp[:, 3:] = q[[1, 2, 0], None] * b[[2, 0, 1]] - q[[2, 0, 1], None] * b[[1, 2, 0]]
    jac = pinhole_derivatives(p_front, dp, pin[:2])
    return uv, jac.transpose(2, 0, 1).copy(), front   # C order, as _pinhole's pixels


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
    Its jac and innovation are taken in C order whatever their layout: a
    filter's rows are a reshape of its slice, and NumPy's matmul leaves BLAS
    for a strided operand, whose sums come out in other bits.

    Returns (state, skipped (B,)). A filter without rows, or whose W or
    W^-1 + G/r cannot be inverted, or whose P+[:, :6] is not finite, keeps
    its prior and is marked skipped; an empty batch skips every filter.
    """
    bounds = cams.body[batch.seg].searchsorted(np.arange(len(state.x) + 1))
    jac, innovation = np.ascontiguousarray(batch.jac), np.ascontiguousarray(batch.innovation)
    g, h = np.zeros((len(state.x), 6, 6)), np.zeros((len(state.x), 6))
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        j = jac[lo:hi].reshape(-1, 6)
        g[b] = j.T @ j
        h[b] = j.T @ innovation[lo:hi].reshape(-1)
    r = state.r_var
    w_inv = _each(np.linalg.inv, state.P[:, :6, :6])
    p_cols = state.P[:, :, :6] @ w_inv @ _each(np.linalg.inv, w_inv + g / r)
    skipped = (bounds[:-1] == bounds[1:]) | ~np.isfinite(p_cols).all(axis=(1, 2))
    x = state.x + (p_cols @ h[..., None])[..., 0] / r
    kj = p_cols @ g / r
    ikh = np.empty(state.P.shape)
    ikh[:, :, :6] = _EYE[:, :6] - kj
    ikh[:, :, 6:] = _EYE[:, 6:]
    p = ikh @ state.P @ ikh.transpose(0, 2, 1) + kj @ p_cols.transpose(0, 2, 1)
    p = 0.5 * (p + p.transpose(0, 2, 1))
    if skipped.any():
        x = np.where(skipped[:, None], state.x, x)
        p = np.where(skipped[:, None, None], state.P, p)
    return PoseFilterState(x, p, state.Q, r), skipped


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
    _, predicted, front, orient, (sf, p_front, pin) = view_points(means, rot, x[:, :3], cams, seg)
    # dP_cam/dM = W^T: row i of W. Component-major, points last, from here on:
    # j[r, c] is d(pixel r)/dM_c and p[r, c] is P[r, c]
    j = pinhole_derivatives(p_front, orient.T.take(sf, axis=-1), pin[:2])
    p = covs.transpose(1, 2, 0).compress(front, axis=-1)
    innovation = (observed_uv[front] - predicted).T
    # the columns of G = P J^T, then the 2x2 S = J G + r I
    g = axis_sum(p[:, None] * j, 2)
    s = axis_sum(j[:, :, None] * g, 1)
    s[0, 0] += r_var
    s[1, 1] += r_var
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[0, 1]
    # the gain columns K = G S^-1: (g0 s11 - g1 s01, g1 s00 - g0 s01) / det
    k = (g * s[(1, 0), (1, 0)] - g[:, ::-1] * s[0, 1]) / det
    new_means = means[front] + axis_sum(k * innovation, 1).T
    # Joseph form (I - K J) P (I - K J)^T + r K K^T, one axis sum per product
    a = -axis_sum(k[:, :, None] * j, 1)
    a.reshape(9, -1)[::4] += 1.0   # the diagonal of I - K J
    ap = axis_sum(a[:, :, None] * p, 1)
    cov = axis_sum(ap[:, None] * a, 2) + r_var * axis_sum(k[:, None] * k, 2)
    return new_means, (0.5 * (cov + cov.transpose(1, 0, 2))).T, front


def initial_structure_covariance(tuning: FilterTuning, n: int) -> np.ndarray:
    """Depth-axis-inflated initial covariance for orthographically seeded
    points, expressed in the camera axes at initialization."""
    cov = np.diag(
        [tuning.p0_struct_lateral, tuning.p0_struct_lateral, tuning.p0_struct_depth]
    )
    return np.repeat(cov[None, :, :], n, axis=0)
