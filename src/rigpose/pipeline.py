"""End-to-end sequence estimators for the two rig layouts.

Both estimators consume a per-frame, per-camera observation stream of
(feature ids, pixels), produced either by the simulator or by a tracks
CSV, and emit a pose series with per-frame diagnostics.

Overlapping (stereo) layout: features are matched across each stereo pair,
validated against the pair's fundamental matrix, and triangulated with the
current pose estimate; a single pose EKF consumes every camera's pixel
measurements. When the tracked-feature count drops below a threshold the
estimator backtracks one frame, re-matches and re-triangulates there with
the already-emitted pose, and continues without re-seeding the filter.

Non-overlapping layout: every camera runs its own monocular chain in its
own initial frame, with orthographic structure initialization at a
configured depth, per-feature structure EKFs, a Lowe seed, and a
per-camera pose EKF. Each frame the four local poses are fused through the
rigidity constraints (rotation median plus the scale-factor least squares)
into the RC series; the per-camera series are also mapped to body poses
for reporting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import ekf, fusion, stereo
from .errors import (
    BehindCamera,
    Diverged,
    EstimationFailure,
    InputError,
    InsufficientFeatures,
    InsufficientMatches,
    LengthMismatch,
    SingularInnovationCovariance,
)
from .geometry import (
    Z_MIN,
    Camera,
    CameraRig,
    Intrinsics,
    Pose,
    change_basis,
    euler_angles,
    rot_from_angles,
    view_points,
)
from .simulate import Trajectory


@dataclass
class PipelineConfig:
    """Sequence-level thresholds shared by both layouts."""

    redetect_threshold: int = 50    # backtrack when tracked features drop below this
    epipolar_tol_px: float = 2.0    # stereo correspondence gate
    init_depth: float = 1.0         # z0 for orthographic structure init (m)
    min_matches: int = 4            # Lowe / startup minimum


@dataclass
class PoseEstimateSeries:
    """Per-frame pose estimates with method tags and diagnostics."""

    d: list = field(default_factory=list)
    angles: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def append(self, pose: Pose, method: str, diag: dict | None = None):
        self.d.append(np.asarray(pose.d, dtype=float))
        self.angles.append(np.asarray(pose.angles, dtype=float))
        self.methods.append(method)
        self.diagnostics.append(diag or {})

    def __len__(self) -> int:
        return len(self.d)

    def pose(self, j: int) -> Pose:
        return Pose(self.d[j], self.angles[j])

    def d_array(self) -> np.ndarray:
        return np.asarray(self.d)

    def angles_array(self) -> np.ndarray:
        return np.asarray(self.angles)


def pose_error_report(series: PoseEstimateSeries, truth: Trajectory) -> np.ndarray:
    """Mean absolute error per pose parameter (tx, ty, tz, alpha, beta,
    gamma), averaged over frames 1..F-1. Frame 0 is identity by
    construction and is excluded so it cannot dilute the average. Angles
    that differ by a multiple of 2 pi are one rotation: an angle error
    above pi is taken modulo 2 pi."""
    if len(series) != len(truth):
        raise LengthMismatch(f"series has {len(series)} frames, truth has {len(truth)}")
    err_d = np.abs(series.d_array()[1:] - truth.d[1:])
    diff_a = series.angles_array()[1:] - truth.angles[1:]
    err_a = np.abs(diff_a)
    err_a = np.where(err_a > np.pi, np.abs((diff_a + np.pi) % (2 * np.pi) - np.pi), err_a)
    return np.concatenate([err_d.mean(axis=0), err_a.mean(axis=0)])


# ---------------------------------------------------------------------------
# Lowe's method: damped Gauss-Newton over the six pose parameters
# ---------------------------------------------------------------------------

def lowe_pose(
    points: np.ndarray,
    pixels: np.ndarray,
    intr: Intrinsics,
    init: Pose,
    max_iter: int = 50,
    step_tol: float = 1e-10,
) -> Pose:
    """Refine a reference-camera pose from 3D-2D matches by minimizing the
    pixel reprojection error.

    Damped Gauss-Newton: the step is halved while it increases the
    residual; five consecutive iterations without improvement raise
    Diverged. Needs at least four matches.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points) < 4:
        raise InsufficientMatches(f"need >= 4 matches, got {len(points)}")
    cam = Camera(D=np.zeros(3), R=np.eye(3), intrinsics=intr)

    def cost_of(vec):
        p_cam, uv_pred = view_points(points, rot_from_angles(vec[3:]), vec[:3], cam)
        if np.any(p_cam[:, 2] <= Z_MIN):
            raise BehindCamera("match point behind the camera")
        res = (pixels - uv_pred).ravel()
        return res @ res

    vec = init.as_vector()
    cost = cost_of(vec)   # BehindCamera here means init outside the basin
    fails = 0
    for _ in range(max_iter):
        uv_pred, jac = ekf.pose_measurement_rows(vec, cam, points)
        res = (pixels - uv_pred).ravel()
        j = jac.reshape(-1, 6)
        jtj = j.T @ j
        jtr = j.T @ res
        try:
            step = np.linalg.solve(jtj, jtr)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(j, res, rcond=None)
        step_norm = np.linalg.norm(step)
        if step_norm < step_tol:
            break
        scale = 1.0
        improved = False
        for _ in range(25):
            cand = vec + scale * step
            try:
                cand_cost = cost_of(cand)
            except BehindCamera:
                cand_cost = np.inf
            if cand_cost <= cost * (1.0 + 1e-12):
                improved = True
                break
            scale *= 0.5
        if not improved:
            # A vanishing step that cannot reduce the cost is convergence at
            # a noisy minimum, not divergence.
            if step_norm < 1e-8:
                break
            fails += 1
            if fails >= 5:
                raise Diverged("residual increased for 5 consecutive damped steps")
            continue
        fails = 0
        vec = cand
        cost = cand_cost
        if np.linalg.norm(scale * step) < step_tol:
            break
    return Pose.from_vector(vec)


# ---------------------------------------------------------------------------
# Track bookkeeping
# ---------------------------------------------------------------------------

class _TrackStore:
    """Feature structure estimates keyed by feature id, stored as arrays."""

    def __init__(self, with_covs: bool = False):
        self.index: dict[int, int] = {}
        self.means = np.zeros((0, 3))
        self.covs = np.zeros((0, 3, 3)) if with_covs else None

    def __len__(self) -> int:
        return len(self.index)

    def known(self, ids: np.ndarray) -> np.ndarray:
        return np.fromiter((f in self.index for f in ids), dtype=bool, count=len(ids))

    def rows(self, ids: np.ndarray) -> np.ndarray:
        return np.fromiter((self.index[f] for f in ids), dtype=int, count=len(ids))

    def upsert(self, ids, means, covs=None):
        ids = np.asarray(ids)
        means = np.asarray(means, dtype=float).reshape(-1, 3)
        fresh = [i for i, f in enumerate(ids) if int(f) not in self.index]
        if fresh:
            start = len(self.means)
            self.means = np.vstack([self.means, np.zeros((len(fresh), 3))])
            if self.covs is not None:
                self.covs = np.concatenate(
                    [self.covs, np.zeros((len(fresh), 3, 3))], axis=0
                )
            for offset, i in enumerate(fresh):
                self.index[int(ids[i])] = start + offset
        rows = self.rows(ids)
        self.means[rows] = means
        if covs is not None and self.covs is not None:
            self.covs[rows] = np.asarray(covs, dtype=float).reshape(-1, 3, 3)


def _finite_or_fail(state: ekf.PoseFilterState, frame: int):
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.P))):
        raise EstimationFailure(f"filter state became non-finite at frame {frame}")


# ---------------------------------------------------------------------------
# Overlapping (stereo) layout
# ---------------------------------------------------------------------------

def _match_and_triangulate(
    frame_obs, rig: CameraRig, pairs, pose: Pose, pcfg: PipelineConfig, store: _TrackStore
) -> int:
    """Stereo-match each pair at one frame, gate on the epipolar distance,
    triangulate with the given pose, and upsert the results. Returns the
    number of accepted matches."""
    accepted = 0
    for pair in pairs:
        ids_a, uv_a = frame_obs[pair.cam_a]
        ids_b, uv_b = frame_obs[pair.cam_b]
        common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
        if len(common) == 0:
            continue
        pa, pb = uv_a[ia], uv_b[ib]
        dist = stereo.epipolar_distances(pair.F, pa, pb)
        keep = dist <= pcfg.epipolar_tol_px
        if not np.any(keep):
            continue
        pts, ok = stereo.triangulate_batch(rig, pose, pair, pa[keep], pb[keep])
        good = common[keep][ok]
        if len(good):
            store.upsert(good, pts[ok])
            accepted += len(good)
    return accepted


def _stereo_batch(
    frame_obs, rig: CameraRig, pairs, store: _TrackStore, pose_vec, pcfg: PipelineConfig
) -> tuple[ekf.MeasurementBatch, int]:
    """Measurements of known-structure features at one frame.

    Pair observations failing the epipolar gate are dropped for the frame;
    points behind a camera at the current estimate are masked out. The
    feature count returned is the number of distinct tracked ids observed.
    """
    dropped: set[int] = set()
    for pair in pairs:
        ids_a, uv_a = frame_obs[pair.cam_a]
        ids_b, uv_b = frame_obs[pair.cam_b]
        common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
        if len(common) == 0:
            continue
        dist = stereo.epipolar_distances(pair.F, uv_a[ia], uv_b[ib])
        dropped.update(int(f) for f in common[dist > pcfg.epipolar_tol_px])

    batch = ekf.MeasurementBatch()
    seen: set[int] = set()
    for k in range(len(rig.cameras)):
        ids, uv = frame_obs[k]
        if len(ids) == 0:
            continue
        mask = store.known(ids)
        if dropped:
            mask &= np.fromiter((int(f) not in dropped for f in ids), bool, len(ids))
        if not np.any(mask):
            continue
        ids_k, uv_k = ids[mask], uv[mask]
        pts = store.means[store.rows(ids_k)]
        depths = ekf.predicted_depths(pose_vec, rig.camera(k), pts)
        front = depths > 0
        if not np.any(front):
            continue
        batch.entries.append(
            ekf.CameraMeasurements(camera=k, ids=ids_k[front], uv=uv_k[front], points=pts[front])
        )
        seen.update(int(f) for f in ids_k[front])
    return batch, len(seen)


def run_stereo_sequence(
    frames,
    rig: CameraRig,
    tuning: ekf.FilterTuning | None = None,
    pcfg: PipelineConfig | None = None,
    truth: Trajectory | None = None,
    ideal_init: bool = False,
) -> PoseEstimateSeries:
    """Estimate the pose sequence of an overlapping (stereo) rig.

    frames: per-frame list of per-camera (ids, pixels) observations.
    With ideal_init the filter seed state (pose and velocity at frame 1)
    is taken from the supplied ground truth instead of the Lowe seed.
    """
    if not frames:
        raise InputError("empty observation stream")
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    pairs = [stereo.make_stereo_pair(rig, a, b) for a, b in rig.stereo_pairs()]
    store = _TrackStore()
    series = PoseEstimateSeries()

    pose0 = Pose.identity()
    n_matched = _match_and_triangulate(frames[0], rig, pairs, pose0, pcfg, store)
    if n_matched < pcfg.min_matches:
        raise InsufficientFeatures(
            f"frame 0 produced {n_matched} validated matches (< {pcfg.min_matches})"
        )
    series.append(pose0, "init", {"features": n_matched})
    if len(frames) == 1:
        return series

    # Lowe seed at frame 1 from the reference camera's tracked features.
    ids1, uv1 = frames[1][0]
    mask = store.known(ids1)
    if ideal_init and truth is not None:
        pose1 = truth.pose(1)
    else:
        pts = store.means[store.rows(ids1[mask])]
        pose1 = lowe_pose(pts, uv1[mask], rig.camera(0).intrinsics, pose0)
    vel = pose1.as_vector() - pose0.as_vector()
    state = ekf.make_pose_filter(pose1.as_vector(), vel, tuning)
    series.append(pose1, "ideal-seed" if ideal_init else "lowe", {"features": int(mask.sum())})

    for j in range(2, len(frames)):
        state = ekf.pose_predict(state)
        diag: dict = {"retriangulated": False}

        batch, count = _stereo_batch(frames[j], rig, pairs, store, state.x, pcfg)
        if count < pcfg.redetect_threshold:
            _match_and_triangulate(frames[j - 1], rig, pairs, series.pose(j - 1), pcfg, store)
            diag["retriangulated"] = True
            batch, count = _stereo_batch(frames[j], rig, pairs, store, state.x, pcfg)
        diag["features"] = count

        method = "ekf"
        if batch.n_features == 0:
            method = "ekf-skip"
        else:
            try:
                state = ekf.pose_update(state, batch, rig)
            except (SingularInnovationCovariance, BehindCamera):
                method = "ekf-skip"
        _finite_or_fail(state, j)
        series.append(Pose.from_vector(state.x[:6]), method, diag)
    return series


# ---------------------------------------------------------------------------
# Non-overlapping layout
# ---------------------------------------------------------------------------

def _local_camera(cam: Camera) -> Camera:
    return Camera(D=np.zeros(3), R=np.eye(3), intrinsics=cam.intrinsics)


def _mono_batch(store: _TrackStore, ids, uv, pose_vec, cam: Camera):
    mask = store.known(ids)
    if not np.any(mask):
        return None, 0
    ids_k, uv_k = ids[mask], uv[mask]
    pts = store.means[store.rows(ids_k)]
    depths = ekf.predicted_depths(pose_vec, cam, pts)
    front = depths > 0
    if not np.any(front):
        return None, 0
    batch = ekf.MeasurementBatch(
        [ekf.CameraMeasurements(camera=0, ids=ids_k[front], uv=uv_k[front], points=pts[front])]
    )
    return batch, int(front.sum())


def _run_monocular_chain(
    cam_frames,
    cam: Camera,
    tuning: ekf.FilterTuning,
    pcfg: PipelineConfig,
    local_truth: list[np.ndarray] | None,
    ideal_points: np.ndarray | None,
):
    """One camera's local-frame chain: orthographic init, structure EKFs,
    Lowe seed, pose EKF, depletion backtracking. Returns per-frame local
    pose vectors (6,) and diagnostics."""
    local_cam = _local_camera(cam)
    intr = cam.intrinsics
    rig1 = CameraRig([local_cam], layout="non-overlapping")
    store = _TrackStore(with_covs=True)

    ids0, uv0 = cam_frames[0]
    if len(ids0) < pcfg.min_matches:
        raise InsufficientFeatures(f"camera saw {len(ids0)} features at frame 0")
    if ideal_points is not None:
        init_pts = ideal_points
    else:
        init_pts = ekf.orthographic_init(uv0, intr, pcfg.init_depth)
    store.upsert(ids0, init_pts, ekf.initial_structure_covariance(tuning, len(ids0)))

    locals_ = [np.zeros(6)]
    diags = [{"features": len(ids0), "redetected": False}]
    if len(cam_frames) == 1:
        return locals_, diags

    ids1, uv1 = cam_frames[1]
    mask = store.known(ids1)
    if local_truth is not None:
        vec1 = local_truth[1]
        pose1 = Pose.from_vector(vec1)
    else:
        pts = store.means[store.rows(ids1[mask])]
        pose1 = lowe_pose(pts, uv1[mask], intr, Pose.identity())
        vec1 = pose1.as_vector()
    state = ekf.make_pose_filter(vec1, vec1, tuning)  # velocity seed: pose1 - identity
    locals_.append(vec1.copy())
    diags.append({"features": int(mask.sum()), "redetected": False})
    _structure_pass(store, ids1[mask], uv1[mask], vec1, local_cam, tuning)

    for j in range(2, len(cam_frames)):
        state = ekf.pose_predict(state)
        ids_j, uv_j = cam_frames[j]
        diag = {"redetected": False}

        active = int(store.known(ids_j).sum()) if len(ids_j) else 0
        if active < pcfg.redetect_threshold:
            _redetect(store, cam_frames[j - 1], locals_[j - 1], intr, pcfg, tuning)
            diag["redetected"] = True

        batch, count = (None, 0)
        if len(ids_j):
            batch, count = _mono_batch(store, ids_j, uv_j, state.x, local_cam)
        diag["features"] = count

        method = "ekf"
        if batch is None:
            method = "ekf-skip"
        else:
            try:
                state = ekf.pose_update(state, batch, rig1)
            except (SingularInnovationCovariance, BehindCamera):
                method = "ekf-skip"
        _finite_or_fail(state, j)
        vec = state.x[:6].copy()
        locals_.append(vec)
        diag["method"] = method
        diags.append(diag)

        if len(ids_j):
            mask = store.known(ids_j)
            if np.any(mask):
                _structure_pass(store, ids_j[mask], uv_j[mask], vec, local_cam, tuning)
    return locals_, diags


def _structure_pass(store: _TrackStore, ids, uv, pose_vec, cam: Camera, tuning):
    """Update the structure filters of the observed features with the pose
    held fixed; features behind the camera are left untouched."""
    rows = store.rows(ids)
    pts = store.means[rows]
    depths = ekf.predicted_depths(pose_vec, cam, pts)
    front = depths > Z_MIN
    if not np.any(front):
        return
    rows = rows[front]
    means, covs = ekf.structure_update_batch(
        store.means[rows], store.covs[rows], uv[front], pose_vec, cam, tuning.r_px**2
    )
    store.means[rows] = means
    store.covs[rows] = covs


def _redetect(store: _TrackStore, prev_obs, prev_vec, intr, pcfg, tuning):
    """Backtracked re-detection: orthographically initialize, at the
    previous frame's estimated pose, every feature observed there that has
    no live structure. Existing tracks keep their refined estimates."""
    ids_p, uv_p = prev_obs
    if len(ids_p) == 0:
        return
    fresh = ~store.known(ids_p)
    if not np.any(fresh):
        return
    cam_pts = ekf.orthographic_init(uv_p[fresh], intr, pcfg.init_depth)
    rot = rot_from_angles(prev_vec[3:6])
    world_pts = cam_pts @ rot.T + prev_vec[:3]
    covs = ekf.initial_structure_covariance(tuning, int(fresh.sum()))
    store.upsert(ids_p[fresh], world_pts, covs)


def run_nonoverlap_sequence(
    frames,
    rig: CameraRig,
    tuning: ekf.FilterTuning | None = None,
    pcfg: PipelineConfig | None = None,
    truth: Trajectory | None = None,
    ideal_init: bool = False,
    scene: np.ndarray | None = None,
) -> dict[str, PoseEstimateSeries]:
    """Estimate pose series from four individually aimed cameras.

    Returns five series: 'cam1'..'cam4' (each camera's own body-pose
    estimate through the rigidity mapping with unit scales) and 'RC' (the
    rigidity-constrained fusion: per-axis rotation medians plus the solved
    reference translation scale).

    With ideal_init, structure is initialized at the true local positions
    and the filter seeds come from the ground-truth local poses.
    """
    if not frames:
        raise InputError("empty observation stream")
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    if rig.layout != "non-overlapping" or len(rig.cameras) != 4:
        raise InputError("non-overlapping pipeline needs a 4-camera non-overlapping rig")
    n_frames = len(frames)

    locals_per_cam = []
    diags_per_cam = []
    for k in range(4):
        cam = rig.camera(k)
        cam_frames = [frame[k] for frame in frames]
        local_truth = None
        ideal_points = None
        if ideal_init and truth is not None:
            local_truth = []
            for j in range(min(2, n_frames)):
                lp = fusion.true_local_pose(truth.pose(j), cam, k)
                local_truth.append(np.concatenate([lp.l, euler_angles(lp.r)]))
            if scene is not None:
                ids0 = frames[0][k][0]
                ideal_points = (scene[ids0] - cam.D) @ cam.R
        locals_, diags = _run_monocular_chain(
            cam_frames, cam, tuning, pcfg, local_truth, ideal_points
        )
        locals_per_cam.append(locals_)
        diags_per_cam.append(diags)

    out: dict[str, PoseEstimateSeries] = {}
    per_frame = [[] for _ in range(n_frames)]   # (local pose, equivalent rotation) per camera
    for k in range(4):
        series = PoseEstimateSeries()
        cam = rig.camera(k)
        for j, vec in enumerate(locals_per_cam[k]):
            local = fusion.CameraLocalPose(k, vec[:3], rot_from_angles(vec[3:]))
            series.append(
                fusion.local_to_body_pose(local, cam), "local", diags_per_cam[k][j]
            )
            per_frame[j].append((local, change_basis(cam.R, local.r)))
        out[f"cam{k + 1}"] = series

    rc = PoseEstimateSeries()
    rc.append(Pose.identity(), "init", {"scales": [1.0, 1.0, 1.0, 1.0]})
    prev_scales = np.ones(4)
    for j in range(1, n_frames):
        result = fusion.fuse_pose(per_frame[j], rig, prev_scales)
        prev_scales = result.scales
        rc.append(
            result.pose,
            "rc",
            {
                "scales": [float(s) for s in result.scales],
                "ill_conditioned": result.ill_conditioned,
                "residual": result.residual,
            },
        )
    out["RC"] = rc
    return out


# ---------------------------------------------------------------------------
# Tracks and poses CSV interfaces
# ---------------------------------------------------------------------------

def write_diagnostics(path, series_by_method: dict[str, PoseEstimateSeries]) -> None:
    """Per-frame diagnostics as JSON lines: feature counts, scale vectors,
    condition flags, and re-triangulation events, one record per frame per
    method."""
    with open(path, "w") as fh:
        for method, series in series_by_method.items():
            for j, diag in enumerate(series.diagnostics):
                record = {"method": method, "frame": j, "tag": series.methods[j]}
                record.update(diag)
                fh.write(json.dumps(record) + "\n")


TRACKS_HEADER = ["cam", "frame", "feature", "u", "v"]
POSES_HEADER = ["frame", "tx", "ty", "tz", "alpha", "beta", "gamma", "method"]
TRUTH_HEADER = ["frame", "tx", "ty", "tz", "alpha", "beta", "gamma"]


def write_tracks(path, frames) -> None:
    """Write an observation stream as `cam,frame,feature,u,v` rows with
    full decimal precision, so reading it back is bit-exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACKS_HEADER)
        for j, frame in enumerate(frames):
            for k, (ids, uv) in enumerate(frame):
                for f, (u, v) in zip(ids, uv):
                    writer.writerow([k, j, int(f), repr(float(u)), repr(float(v))])


def read_tracks(path):
    """Parse a tracks CSV back into a per-frame, per-camera stream.

    Malformed content raises InputError naming the offending line.
    """
    rows = []
    max_cam = -1
    max_frame = -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: line 1: empty tracks file") from None
        if [h.strip() for h in header] != TRACKS_HEADER:
            raise InputError(
                f"{path}: line 1: expected header {','.join(TRACKS_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise InputError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            try:
                cam, frame, feature = int(row[0]), int(row[1]), int(row[2])
                u, v = float(row[3]), float(row[4])
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
            if cam < 0 or frame < 0 or feature < 0:
                raise InputError(f"{path}: line {lineno}: negative cam/frame/feature")
            if not (np.isfinite(u) and np.isfinite(v)):
                raise InputError(f"{path}: line {lineno}: non-finite pixel")
            rows.append((cam, frame, feature, u, v))
            max_cam = max(max_cam, cam)
            max_frame = max(max_frame, frame)
    if not rows:
        raise InputError(f"{path}: no observations")

    grouped: dict[tuple[int, int], list] = {}
    for cam, frame, feature, u, v in rows:
        grouped.setdefault((frame, cam), []).append((feature, u, v))
    frames = []
    for j in range(max_frame + 1):
        per_cam = []
        for k in range(max_cam + 1):
            entries = grouped.get((j, k), [])
            ids = np.array([e[0] for e in entries], dtype=int)
            uv = np.array([[e[1], e[2]] for e in entries], dtype=float).reshape(-1, 2)
            per_cam.append((ids, uv))
        frames.append(per_cam)
    return frames


def write_poses(path, series_by_method: dict[str, PoseEstimateSeries]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POSES_HEADER)
        for method, series in series_by_method.items():
            for j in range(len(series)):
                row = [j]
                row += [repr(float(x)) for x in series.d[j]]
                row += [repr(float(x)) for x in series.angles[j]]
                row.append(method)
                writer.writerow(row)


def read_truth(path) -> Trajectory:
    """Parse a `frame,tx,ty,tz,alpha,beta,gamma` ground-truth CSV."""
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: line 1: empty truth file") from None
        if [h.strip() for h in header] != TRUTH_HEADER:
            raise InputError(
                f"{path}: line 1: expected header {','.join(TRUTH_HEADER)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise InputError(f"{path}: line {lineno}: expected 7 fields")
            try:
                frame = int(row[0])
                vals = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
            entries[frame] = vals
    if not entries:
        raise InputError(f"{path}: no poses")
    n = max(entries) + 1
    if sorted(entries) != list(range(n)):
        raise InputError(f"{path}: frames are not contiguous from 0")
    d = np.array([entries[j][:3] for j in range(n)])
    angles = np.array([entries[j][3:] for j in range(n)])
    rotations = np.stack([rot_from_angles(a) for a in angles])
    return Trajectory(d=d, rotations=rotations, angles=angles)


def write_truth(path, truth: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for j in range(len(truth)):
            row = [j]
            row += [repr(float(x)) for x in truth.d[j]]
            row += [repr(float(x)) for x in truth.angles[j]]
            writer.writerow(row)
