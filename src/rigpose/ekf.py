"""Recursive estimators: the 12-state pose EKF and 3-state structure EKFs.

Pose state layout: x = (tx, ty, tz, alpha, beta, gamma, and their per-frame
derivatives), so x[:6] is the pose and x[6:] its velocity. The plant is
constant velocity: pose += velocity each frame. Measurements are pixel
locations of features with known 3D structure, so the measurement model is
the rig transform composed with pinhole projection (geometry.view_points);
its Jacobian w.r.t. the six pose parameters is analytic. The velocity
states do not enter the measurement, so the update works with the six
pose columns J alone: the information matrix takes the 6x6 J^T J, the
gain is formed from J, and the zero-padded (2n, 12) measurement matrix
is never built.

The update computes the Kalman gain in information form (well conditioned
for large measurement counts and small pixel variance) and propagates the
covariance in Joseph form, which preserves symmetry and positive
semidefiniteness for any gain.

Structure filters are 3-state per-point estimators updated with the current
pose held fixed; they are stored as batched arrays so a camera's whole
feature set updates in one vectorized call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCamera,
    EmptyBatch,
    SingularInnovationCovariance,
    check_config_fields,
)
from .geometry import (
    Camera,
    CameraRig,
    Intrinsics,
    Z_MIN,
    camera_placement,
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
    """State vector, covariance, and noise settings of one pose EKF."""

    x: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    r_var: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(N_STATE)
        self.P = np.asarray(self.P, dtype=float).reshape(N_STATE, N_STATE)
        self.Q = np.asarray(self.Q, dtype=float).reshape(N_STATE, N_STATE)


def make_pose_filter(pose_vec, vel_vec, tuning: FilterTuning) -> PoseFilterState:
    x = np.concatenate([np.asarray(pose_vec, float), np.asarray(vel_vec, float)])
    return PoseFilterState(
        x=x,
        P=tuning.initial_covariance(),
        Q=tuning.process_noise(),
        r_var=tuning.r_px**2,
    )


def transition_matrix() -> np.ndarray:
    a = np.eye(N_STATE)
    a[:6, 6:] = np.eye(6)
    return a


def pose_predict(state: PoseFilterState) -> PoseFilterState:
    """Constant-velocity prediction: pose += velocity, P <- A P A^T + Q."""
    a = transition_matrix()
    x = a @ state.x
    p = a @ state.P @ a.T + state.Q
    return PoseFilterState(x, 0.5 * (p + p.T), state.Q, state.r_var)


@dataclass
class CameraMeasurements:
    """One camera's share of a measurement batch."""

    camera: int
    ids: np.ndarray
    uv: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        self.uv = np.asarray(self.uv, dtype=float).reshape(-1, 2)
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)


@dataclass
class MeasurementBatch:
    """Pixel observations of known-structure features, grouped per camera."""

    entries: list[CameraMeasurements] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return sum(len(e.ids) for e in self.entries)

    @property
    def n_rows(self) -> int:
        return 2 * self.n_features


def pose_measurement_rows(pose_vec: np.ndarray, cam: Camera, points: np.ndarray):
    """Predicted pixels and the analytic pose Jacobian for one camera.

    Returns (uv (N, 2), jac (N, 2, 6)); jac columns are d(pixel)/d(d, angles).
    Raises BehindCamera if any point has nonpositive depth.
    """
    d = pose_vec[:3]
    rot, drs = rot_with_derivatives(pose_vec[3:6])
    p_cam, uv, jp, orient = view_points(points, rot, d, cam, jacobian=True)
    if np.any(p_cam[:, 2] <= Z_MIN):
        raise BehindCamera("measurement point behind its camera")
    jac = np.empty((len(points), 2, 6))
    # dP_cam/dd = -orient^T, identical for every point
    jac[:, :, :3] = jp @ (-orient.T)
    rel = points - d
    for i in range(3):
        # dP_cam/d(angle_i) = R_k^T dR^T/d(angle_i) (M - d)
        dp = (rel @ drs[i]) @ cam.R
        jac[:, :, 3 + i] = np.einsum("nij,nj->ni", jp, dp)
    return uv, jac


def predicted_depths(pose_vec: np.ndarray, cam: Camera, points: np.ndarray) -> np.ndarray:
    """Depth of each point in the camera at the given pose (for visibility masks)."""
    center, orient = camera_placement(rot_from_angles(pose_vec[3:6]), pose_vec[:3], cam)
    return (points - center) @ orient[:, 2]


def pose_update(state: PoseFilterState, batch: MeasurementBatch, rig: CameraRig) -> PoseFilterState:
    """EKF measurement update over every camera's observations at once.

    With J the (2n, 6) pose Jacobian of the stacked pixel rows, H = [J 0]:
    the velocity columns are zero and never formed. The gain is computed
    in information form, K = (P^-1 + H^T H / r)^-1 H^T / r, where H^T H is
    J^T J in its top-left 6x6 block and K = P+[:, :6] J^T / r; this is
    algebraically identical to P H^T (H P H^T + R)^-1. Covariance follows
    in Joseph form with K H = [K J 0]. Raises SingularInnovationCovariance
    when the prior or the information matrix cannot be factorized, in
    which case the caller may skip the update for this frame.
    """
    if batch.n_features == 0:
        raise EmptyBatch("measurement batch is empty")
    jacs, innovations = [], []
    for entry in batch.entries:
        uv, jac = pose_measurement_rows(state.x, rig.camera(entry.camera), entry.points)
        jacs.append(jac)
        innovations.append(entry.uv - uv)
    j = np.concatenate(jacs).reshape(-1, 6)
    r = state.r_var
    try:
        info = np.linalg.inv(state.P)
        info[:6, :6] += (j.T @ j) / r
        l_inv = np.linalg.inv(np.linalg.cholesky(info))
        p_post = l_inv.T @ l_inv
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovariance(str(exc)) from exc
    if not np.all(np.isfinite(p_post)):
        raise SingularInnovationCovariance("non-finite posterior covariance")
    gain = p_post[:, :6] @ j.T / r
    x = state.x + gain @ np.concatenate(innovations).reshape(-1)
    ikh = np.eye(N_STATE)
    ikh[:, :6] -= gain @ j
    p_new = ikh @ state.P @ ikh.T + r * (gain @ gain.T)
    return PoseFilterState(x, 0.5 * (p_new + p_new.T), state.Q, state.r_var)


# ---------------------------------------------------------------------------
# Per-point structure filters
# ---------------------------------------------------------------------------

def structure_update_batch(
    means: np.ndarray,
    covs: np.ndarray,
    observed_uv: np.ndarray,
    pose_vec: np.ndarray,
    cam: Camera,
    r_var: float,
):
    """Vectorized EKF update of N independent 3-state point filters.

    The pose is held fixed; each point is corrected by its own (u, v)
    observation. All points must be in front of the camera. Returns updated
    (means (N, 3), covs (N, 3, 3)).
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    observed_uv = np.asarray(observed_uv, dtype=float)
    rot = rot_from_angles(pose_vec[3:6])
    p_cam, predicted, jp, orient = view_points(means, rot, pose_vec[:3], cam, jacobian=True)
    if np.any(p_cam[:, 2] <= Z_MIN):
        raise BehindCamera("structure point behind its camera")
    jac = jp @ orient.T                                  # dP_cam/dM = orient^T
    innovation = observed_uv - predicted                 # (N, 2)

    pjt = np.einsum("nij,nkj->nik", covs, jac)           # P J^T, (N, 3, 2)
    s = np.einsum("nij,njk->nik", jac, pjt)              # (N, 2, 2)
    s[:, 0, 0] += r_var
    s[:, 1, 1] += r_var
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    s_inv = np.empty_like(s)
    s_inv[:, 0, 0] = s[:, 1, 1]
    s_inv[:, 1, 1] = s[:, 0, 0]
    s_inv[:, 0, 1] = -s[:, 0, 1]
    s_inv[:, 1, 0] = -s[:, 1, 0]
    s_inv /= det[:, None, None]
    gain = np.einsum("nij,njk->nik", pjt, s_inv)         # (N, 3, 2)
    new_means = means + np.einsum("nij,nj->ni", gain, innovation)
    ikh = np.eye(3)[None] - np.einsum("nij,njk->nik", gain, jac)
    new_covs = np.einsum("nij,njk,nlk->nil", ikh, covs, ikh) + r_var * np.einsum(
        "nij,nkj->nik", gain, gain
    )
    new_covs = 0.5 * (new_covs + np.swapaxes(new_covs, 1, 2))
    return new_means, new_covs


def orthographic_init(uv: np.ndarray, intr: Intrinsics, depth: float) -> np.ndarray:
    """Back-project pixels (N, 2) to the constant-depth plane z = depth
    in the camera frame."""
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    xn = (uv[:, 0] - intr.cx) / intr.fx
    yn = (uv[:, 1] - intr.cy) / intr.fy
    return depth * np.stack([xn, yn, np.ones(len(uv))], axis=-1)


def initial_structure_covariance(tuning: FilterTuning, n: int) -> np.ndarray:
    """Depth-axis-inflated initial covariance for orthographically seeded
    points, expressed in the camera axes at initialization."""
    cov = np.diag(
        [tuning.p0_struct_lateral, tuning.p0_struct_lateral, tuning.p0_struct_depth]
    )
    return np.repeat(cov[None, :, :], n, axis=0)
