"""Recursive estimators: stacks of 12-state pose EKFs and 3-state structure EKFs.

Pose state layout: x = (tx, ty, tz, alpha, beta, gamma, and their per-frame
derivatives), so x[:6] is the pose and x[6:] its velocity. The plant is
constant velocity: pose += velocity each frame. Measurements are pixel
locations of features with known 3D structure, so the measurement model is
the rig transform composed with pinhole projection (geometry.view_points);
its Jacobian w.r.t. the six pose parameters is analytic. The velocity
states do not enter the measurement, so the update works with the six
pose columns J alone: the information matrix takes the 6x6 J^T J, the
gain is formed from J, and the zero-padded (2n, 12) measurement matrix
is never built. The gain is computed in information form (well
conditioned for large measurement counts and small pixel variance) and
the covariance propagated in Joseph form, which preserves symmetry and
positive semidefiniteness for any gain.

Filters come in stacks of B: PoseFilterState holds x (B, 12) and
P (B, 12, 12), and a measurement batch is flat over segments, each one
camera of one filter (geometry.CameraStack): the four monocular chains
are a stack of four with a camera each, the stereo rig a stack of one with
a segment per camera. Prediction, measurement and the structure update
each run once per frame for the whole stack, building each filter's
rotation once per call. The two kernels that place cameras at a state,
measure and structure_update_batch, place them once and own the depth
mask: a point at depth <= Z_MIN in its camera leaves no row and no
update, so no caller places the same points again to find it. The sums
over a filter's measurement rows (J^T J, K r, K J, K K^T) run per filter
on its contiguous slice: on a zero-padded stack they would sum in another
order and change the last bits, and a filter must get the same bits
whatever else is in its stack.

Structure filters are 3-state per-point estimators updated with the pose
held fixed; a whole stack's feature sets update in one vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_config_fields
from .geometry import (
    Z_MIN,
    CameraStack,
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

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(-1, N_STATE)
        self.P = np.asarray(self.P, dtype=float).reshape(-1, N_STATE, N_STATE)
        self.Q = np.asarray(self.Q, dtype=float).reshape(N_STATE, N_STATE)


def make_pose_filter(pose_vecs, vel_vecs, tuning: FilterTuning) -> PoseFilterState:
    """Filters seeded at poses (B, 6) with velocities (B, 6); a single (6,)
    pose and velocity give a stack of one."""
    x = np.concatenate([np.atleast_2d(pose_vecs), np.atleast_2d(vel_vecs)], axis=-1)
    p = np.repeat(tuning.initial_covariance()[None], len(x), axis=0)
    return PoseFilterState(x, p, tuning.process_noise(), tuning.r_px**2)


def transition_matrix() -> np.ndarray:
    a = np.eye(N_STATE)
    a[:6, 6:] = np.eye(6)
    return a


def pose_predict(state: PoseFilterState) -> PoseFilterState:
    """Constant-velocity prediction of every filter: pose += velocity,
    P <- A P A^T + Q."""
    a = transition_matrix()
    x = (a @ state.x[..., None])[..., 0]
    p = a @ state.P @ a.T + state.Q
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

    Returns (uv (N, 2), jac (N, 2, 6), front (N,)): jac columns are
    d(pixel)/d(d, angles); only rows of points in front (depth > Z_MIN) mean
    anything."""
    d = x[:, :3]
    rot, drs = rot_with_derivatives(x[:, 3:6])
    p_cam, uv, jp, orient = view_points(points, rot, d, cams, jacobian=True, seg=seg)
    owner = cams.body[seg]
    jac = np.empty((len(points), 2, 6))
    # dP_cam/dd = -orient^T, identical for every point of a camera
    jac[:, :, :3] = jp @ -np.swapaxes(orient, 1, 2)
    # dP_cam/d(angle_i) = R_k^T dR^T/d(angle_i) (M - d), row i of dp
    dp = ((points - d[owner])[:, None, None] @ drs[owner]) @ cams.R[seg][:, None]
    jac[:, :, 3:] = np.einsum("nij,nkj->nik", jp, dp[:, :, 0])
    return uv, jac, p_cam[:, 2] > Z_MIN


def measure(x: np.ndarray, cams: CameraStack, ids, uv, seg, points) -> MeasurementBatch:
    """Linearise the observations uv (N, 2) of features ids with structure
    points (N, 3), point i seen by camera seg[i], at the filters' states x:
    one placement of every camera. Points at depth <= Z_MIN in their
    camera leave no row."""
    predicted, jac, front = pose_measurement_rows(x, cams, seg, points)
    return MeasurementBatch(ids[front], seg[front], uv[front] - predicted[front], jac[front])


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

    With J the (2n, 6) pose Jacobian of a filter's stacked pixel rows,
    H = [J 0] and K = (P^-1 + H^T H / r)^-1 H^T / r = P+[:, :6] J^T / r,
    algebraically identical to P H^T (H P H^T + R)^-1; the covariance
    follows in Joseph form with K H = [K J 0]. Rows, inversions and the
    Joseph product run on the whole stack, the sums over rows per filter.

    The batch comes from measure at state.x, so nothing is placed again.
    Returns (state, skipped (B,)). A filter without rows, or whose
    information matrix cannot be factorized, keeps its prior and is marked
    skipped; an empty batch skips every filter.
    """
    bounds = np.searchsorted(cams.body[batch.seg], np.arange(len(state.x) + 1))
    jacs = [batch.jac[lo:hi].reshape(-1, 6) for lo, hi in zip(bounds[:-1], bounds[1:])]
    r = state.r_var
    info = _each(np.linalg.inv, state.P)
    for b, j in enumerate(jacs):
        info[b, :6, :6] += (j.T @ j) / r
    l_inv = _each(lambda m: np.linalg.inv(np.linalg.cholesky(m)), info)
    x, kkt = state.x.copy(), np.zeros_like(state.P)
    ikh = np.repeat(np.eye(N_STATE)[None], len(x), axis=0)
    skipped = np.ones(len(x), dtype=bool)
    for b, j in enumerate(jacs):
        lo, hi = bounds[b], bounds[b + 1]
        p_post = l_inv[b].T @ l_inv[b]
        if lo == hi or not np.all(np.isfinite(p_post)):
            continue
        gain = p_post[:, :6] @ j.T / r
        x[b] = state.x[b] + gain @ batch.innovation[lo:hi].reshape(-1)
        ikh[b, :, :6] -= gain @ j
        kkt[b] = gain @ gain.T
        skipped[b] = False
    p = ikh @ state.P @ np.swapaxes(ikh, 1, 2) + r * kkt
    p = np.where(skipped[:, None, None], state.P, 0.5 * (p + np.swapaxes(p, 1, 2)))
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
    p_cam, predicted, jp, orient = view_points(means, rot, x[:, :3], cams, jacobian=True, seg=seg)
    front = p_cam[:, 2] > Z_MIN
    means, covs = means[front], covs[front]
    jac = (jp @ np.swapaxes(orient, 1, 2))[front]        # dP_cam/dM = orient^T
    innovation = observed_uv[front] - predicted[front]   # (M, 2)

    pjt = np.einsum("nij,nkj->nik", covs, jac)           # P J^T, (M, 3, 2)
    s = np.einsum("nij,njk->nik", jac, pjt)              # (M, 2, 2)
    s[:, 0, 0] += r_var
    s[:, 1, 1] += r_var
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    s_inv = np.empty_like(s)
    s_inv[:, 0, 0] = s[:, 1, 1]
    s_inv[:, 1, 1] = s[:, 0, 0]
    s_inv[:, 0, 1] = -s[:, 0, 1]
    s_inv[:, 1, 0] = -s[:, 1, 0]
    s_inv /= det[:, None, None]
    gain = np.einsum("nij,njk->nik", pjt, s_inv)         # (M, 3, 2)
    new_means = means + np.einsum("nij,nj->ni", gain, innovation)
    ikh = np.eye(3)[None] - np.einsum("nij,njk->nik", gain, jac)
    new_covs = np.einsum("nij,njk,nlk->nil", ikh, covs, ikh) + r_var * np.einsum(
        "nij,nkj->nik", gain, gain
    )
    new_covs = 0.5 * (new_covs + np.swapaxes(new_covs, 1, 2))
    return new_means, new_covs, front


def initial_structure_covariance(tuning: FilterTuning, n: int) -> np.ndarray:
    """Depth-axis-inflated initial covariance for orthographically seeded
    points, expressed in the camera axes at initialization."""
    cov = np.diag(
        [tuning.p0_struct_lateral, tuning.p0_struct_lateral, tuning.p0_struct_depth]
    )
    return np.repeat(cov[None, :, :], n, axis=0)
