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
    check_config_fields,
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

    def __post_init__(self):
        check_config_fields(
            self, "pipeline", at_least={"redetect_threshold": 0, "min_matches": 4},
            positive=("epipolar_tol_px", "init_depth"),
        )


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

def _compact_ids(frames):
    """Renumber the feature ids of an observation stream to their rank
    among all of its ids. The map keeps id order, so every intersection and
    mask sees the features in the order the original ids give, and a track
    table needs one row per distinct feature only. Returns (frames, number
    of distinct features)."""
    all_ids = np.unique(np.concatenate([ids for frame in frames for ids, _ in frame]))
    compact = [[(np.searchsorted(all_ids, ids), uv) for ids, uv in frame] for frame in frames]
    return compact, len(all_ids)


class _TrackTable:
    """Structure estimates indexed by compact feature id: live[i] marks a
    feature with an estimate, means[i] is its point and covs[i] the
    covariance of its structure filter (non-overlapping layout only)."""

    def __init__(self, n_features: int):
        self.live = np.zeros(n_features, dtype=bool)
        self.means = np.zeros((n_features, 3))
        self.covs = np.zeros((n_features, 3, 3))

    def upsert(self, ids, means, covs=None):
        self.live[ids] = True
        self.means[ids] = means
        if covs is not None:
            self.covs[ids] = covs


def _measurement_batch(
    frame_obs, rig: CameraRig, pairs, store: _TrackTable, pose_vec, pcfg: PipelineConfig
) -> tuple[ekf.MeasurementBatch, int]:
    """Measurements of known-structure features at one frame, for a stereo
    rig with its pairs or a one-camera rig with none.

    Pair observations failing the epipolar gate are dropped for the frame;
    points behind a camera at the current estimate are masked out. The
    feature count returned is the number of distinct tracked ids measured.
    """
    usable = store.live.copy()
    for pair in pairs:
        ids_a, uv_a = frame_obs[pair.cam_a]
        ids_b, uv_b = frame_obs[pair.cam_b]
        common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
        if len(common) == 0:
            continue
        dist = stereo.epipolar_distances(pair.F, uv_a[ia], uv_b[ib])
        usable[common[dist > pcfg.epipolar_tol_px]] = False

    batch = ekf.MeasurementBatch()
    measured = np.zeros_like(usable)
    for k in range(len(rig.cameras)):
        ids, uv = frame_obs[k]
        mask = usable[ids]
        if not np.any(mask):
            continue
        ids_k, uv_k = ids[mask], uv[mask]
        pts = store.means[ids_k]
        front = ekf.predicted_depths(pose_vec, rig.camera(k), pts) > 0
        if not np.any(front):
            continue
        batch.entries.append(
            ekf.CameraMeasurements(camera=k, ids=ids_k[front], uv=uv_k[front], points=pts[front])
        )
        measured[ids_k[front]] = True
    return batch, int(np.count_nonzero(measured))


def _update_or_skip(state: ekf.PoseFilterState, batch, rig: CameraRig, frame: int):
    """Pose EKF update with one frame's batch. An empty batch or a
    degenerate update keeps the predicted state and tags the frame
    'ekf-skip'; a non-finite state aborts the sequence. Returns (state, tag)."""
    method = "ekf-skip"
    if batch.n_features:
        try:
            state = ekf.pose_update(state, batch, rig)
        except (SingularInnovationCovariance, BehindCamera):
            pass
        else:
            method = "ekf"
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.P))):
        raise EstimationFailure(f"filter state became non-finite at frame {frame}")
    return state, method


# ---------------------------------------------------------------------------
# Overlapping (stereo) layout
# ---------------------------------------------------------------------------

def _match_and_triangulate(
    frame_obs, rig: CameraRig, pairs, pose: Pose, pcfg: PipelineConfig, store: _TrackTable
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
    frames, n_features = _compact_ids(frames)
    pairs = [stereo.make_stereo_pair(rig, a, b) for a, b in rig.stereo_pairs()]
    store = _TrackTable(n_features)
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
    mask = store.live[ids1]
    if ideal_init and truth is not None:
        pose1 = truth.pose(1)
    else:
        pose1 = lowe_pose(store.means[ids1[mask]], uv1[mask], rig.camera(0).intrinsics, pose0)
    vel = pose1.as_vector() - pose0.as_vector()
    state = ekf.make_pose_filter(pose1.as_vector(), vel, tuning)
    series.append(pose1, "ideal-seed" if ideal_init else "lowe", {"features": int(mask.sum())})

    for j in range(2, len(frames)):
        state = ekf.pose_predict(state)
        diag: dict = {"retriangulated": False}

        batch, count = _measurement_batch(frames[j], rig, pairs, store, state.x, pcfg)
        if count < pcfg.redetect_threshold:
            _match_and_triangulate(frames[j - 1], rig, pairs, series.pose(j - 1), pcfg, store)
            diag["retriangulated"] = True
            batch, count = _measurement_batch(frames[j], rig, pairs, store, state.x, pcfg)
        diag["features"] = count

        state, method = _update_or_skip(state, batch, rig, j)
        series.append(Pose.from_vector(state.x[:6]), method, diag)
    return series


# ---------------------------------------------------------------------------
# Non-overlapping layout
# ---------------------------------------------------------------------------

def _local_camera(cam: Camera) -> Camera:
    return Camera(D=np.zeros(3), R=np.eye(3), intrinsics=cam.intrinsics)


def _run_monocular_chain(
    cam_frames,
    n_features: int,
    cam: Camera,
    tuning: ekf.FilterTuning,
    pcfg: PipelineConfig,
    local_truth: list[np.ndarray] | None,
    ideal_points: np.ndarray | None,
):
    """One camera's local-frame chain: orthographic init, structure EKFs,
    Lowe seed, pose EKF, depletion backtracking. cam_frames holds the
    camera's (compact ids, pixels) per frame. Returns per-frame local pose
    vectors (6,) and diagnostics."""
    local_cam = _local_camera(cam)
    intr = cam.intrinsics
    rig1 = CameraRig([local_cam], layout="non-overlapping")
    store = _TrackTable(n_features)

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
    mask = store.live[ids1]
    if local_truth is not None:
        vec1 = local_truth[1]
        pose1 = Pose.from_vector(vec1)
    else:
        pose1 = lowe_pose(store.means[ids1[mask]], uv1[mask], intr, Pose.identity())
        vec1 = pose1.as_vector()
    state = ekf.make_pose_filter(vec1, vec1, tuning)  # velocity seed: pose1 - identity
    locals_.append(vec1.copy())
    diags.append({"features": int(mask.sum()), "redetected": False})
    _structure_pass(store, ids1[mask], uv1[mask], vec1, local_cam, tuning)

    for j in range(2, len(cam_frames)):
        state = ekf.pose_predict(state)
        ids_j, uv_j = cam_frames[j]
        diag = {"redetected": False}

        if int(store.live[ids_j].sum()) < pcfg.redetect_threshold:
            _redetect(store, cam_frames[j - 1], locals_[j - 1], intr, pcfg, tuning)
            diag["redetected"] = True

        batch, diag["features"] = _measurement_batch(
            [cam_frames[j]], rig1, [], store, state.x, pcfg
        )
        state, diag["method"] = _update_or_skip(state, batch, rig1, j)
        vec = state.x[:6].copy()
        locals_.append(vec)
        diags.append(diag)

        mask = store.live[ids_j]
        if np.any(mask):
            _structure_pass(store, ids_j[mask], uv_j[mask], vec, local_cam, tuning)
    return locals_, diags


def _structure_pass(store: _TrackTable, ids, uv, pose_vec, cam: Camera, tuning):
    """Update the structure filters of the observed features with the pose
    held fixed; features behind the camera are left untouched."""
    depths = ekf.predicted_depths(pose_vec, cam, store.means[ids])
    front = depths > Z_MIN
    if not np.any(front):
        return
    ids = ids[front]
    means, covs = ekf.structure_update_batch(
        store.means[ids], store.covs[ids], uv[front], pose_vec, cam, tuning.r_px**2
    )
    store.means[ids] = means
    store.covs[ids] = covs


def _redetect(store: _TrackTable, prev_obs, prev_vec, intr, pcfg, tuning):
    """Backtracked re-detection: orthographically initialize, at the
    previous frame's estimated pose, every feature observed there that has
    no live structure. Existing tracks keep their refined estimates."""
    ids_p, uv_p = prev_obs
    fresh = ~store.live[ids_p]
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
    (scene rows indexed by the stream's feature ids) and the filter seeds
    come from the ground-truth local poses.
    """
    if not frames:
        raise InputError("empty observation stream")
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    if rig.layout != "non-overlapping" or len(rig.cameras) != 4:
        raise InputError("non-overlapping pipeline needs a 4-camera non-overlapping rig")
    n_frames = len(frames)
    compact, n_features = _compact_ids(frames)

    locals_per_cam = []
    diags_per_cam = []
    for k in range(4):
        cam = rig.camera(k)
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
            [frame[k] for frame in compact], n_features, cam, tuning, pcfg,
            local_truth, ideal_points,
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


def _read_csv(path, header: list[str], n_int: int):
    """Parse a CSV file whose first line is `header`. The first n_int
    columns hold int64 values, the rest floats; empty lines are skipped.
    Returns (line number per row, int columns (N, n_int), float columns
    (N, len(header) - n_int)). Malformed content raises InputError naming
    its line; a number that Python's int or float would accept but numpy's
    parser does not (such as 1_0) is named by its value only."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    first = next(csv.reader(lines[:1]), [])
    if [h.strip() for h in first] != header:
        raise InputError(
            f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    numbers = np.array([n for n, line in enumerate(lines[1:], start=2) if line], dtype=int)
    if len(numbers) == 0:
        raise InputError(f"{path}: no data rows")
    dtype = np.dtype([("ints", np.int64, n_int), ("floats", float, len(header) - n_int)])
    try:
        data = np.loadtxt(lines[1:], dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    except ValueError as exc:
        # Name the first offending line; the bulk parser reports rows only.
        for n, row in zip(numbers, csv.reader(lines[n - 1] for n in numbers)):
            if len(row) != len(header):
                raise InputError(
                    f"{path}: line {n}: expected {len(header)} fields, got {len(row)}"
                ) from None
            try:
                np.array([int(x) for x in row[:n_int]], dtype=np.int64)
                [float(x) for x in row[n_int:]]
            except (ValueError, OverflowError) as bad:
                raise InputError(f"{path}: line {n}: {bad}") from None
        raise InputError(f"{path}: {exc}") from None
    return numbers, data["ints"], data["floats"]


def _reject_rows(path, lines: np.ndarray, bad: np.ndarray, what: str) -> None:
    if np.any(bad):
        raise InputError(f"{path}: line {lines[np.argmax(bad)]}: {what}")


def read_tracks(path):
    """Parse a tracks CSV back into a per-frame, per-camera stream, each
    camera's rows in file order.

    Feature ids are any non-negative integers; a (cam, frame, feature)
    row may appear once. Malformed content raises InputError naming the
    offending line.
    """
    lines, keys, uv = _read_csv(path, TRACKS_HEADER, n_int=3)
    _reject_rows(path, lines, np.any(keys < 0, axis=1), "negative cam/frame/feature")
    _reject_rows(path, lines, ~np.all(np.isfinite(uv), axis=1), "non-finite pixel")
    cam, frame, feature = keys.T
    by_key = np.lexsort((feature, cam, frame))   # stable: file order among equal keys
    repeat = np.zeros(len(lines), dtype=bool)
    repeat[by_key[1:]] = np.all(keys[by_key[1:]] == keys[by_key[:-1]], axis=1)
    _reject_rows(path, lines, repeat, "repeated (cam, frame, feature) row")

    n_frames, n_cams = int(frame.max()) + 1, int(cam.max()) + 1
    order = np.lexsort((cam, frame))
    groups = frame[order] * n_cams + cam[order]
    bounds = np.searchsorted(groups, np.arange(n_frames * n_cams + 1))
    ids, uv = feature[order], uv[order]
    return [
        [(ids[bounds[g]:bounds[g + 1]], uv[bounds[g]:bounds[g + 1]])
         for g in range(j * n_cams, (j + 1) * n_cams)]
        for j in range(n_frames)
    ]


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
    """Parse a `frame,tx,ty,tz,alpha,beta,gamma` ground-truth CSV holding
    each frame 0..N-1 once, in any order."""
    lines, frame, vals = _read_csv(path, TRUTH_HEADER, n_int=1)
    order = np.argsort(frame[:, 0], kind="stable")
    if not np.array_equal(frame[order, 0], np.arange(len(lines))):
        raise InputError(f"{path}: frames are not 0..N-1, each once")
    d, angles = vals[order, :3], vals[order, 3:]
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
