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
configured depth, per-feature structure EKFs, a Lowe seed, and a pose EKF;
the four chains step in lockstep as one stack of filters. Their local
poses map to body poses (the per-camera series) in one call per run, and
each frame is fused through the rigidity constraints (median of those
body angles plus the scale-factor least squares) into the RC series.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

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
    check_config_fields,
)
from .geometry import (
    Z_MIN,
    Camera,
    CameraRig,
    CameraStack,
    Intrinsics,
    Pose,
    back_project,
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
    """Per-frame pose estimates, translations d (F, 3) and angles (F, 3),
    with a method tag and a diagnostics record per frame."""

    d: np.ndarray
    angles: np.ndarray
    methods: list
    diagnostics: list

    def __len__(self) -> int:
        return len(self.d)

    def pose(self, j: int) -> Pose:
        return Pose(self.d[j], self.angles[j])


def pose_error_report(series: PoseEstimateSeries, truth: Trajectory) -> np.ndarray:
    """Mean absolute error per pose parameter (tx, ty, tz, alpha, beta,
    gamma), averaged over frames 1..F-1. Frame 0 is identity by
    construction and is excluded so it cannot dilute the average. Angles
    that differ by a multiple of 2 pi are one rotation: an angle error
    above pi is taken modulo 2 pi."""
    if len(series) != len(truth):
        raise LengthMismatch(f"series has {len(series)} frames, truth has {len(truth)}")
    if len(series) < 2:
        raise InputError("need at least 2 frames to report errors")
    err_d = np.abs(series.d[1:] - truth.d[1:])
    diff_a = series.angles[1:] - truth.angles[1:]
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
    cams, seg = CameraStack.of([cam], [0]), np.zeros(len(points), dtype=int)

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
        # cost_of accepted vec, so every point lies in front of the camera
        uv_pred, jac, _ = ekf.pose_measurement_rows(vec[None], cams, seg, points)
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

def _compact_ids(frames, body):
    """Renumber the feature ids of an observation stream to their rank i among
    its n distinct ids and flatten each frame into (rows, pixels, camera of
    each row): camera k's feature i is row body[k] * n + i of a track table.
    The map keeps id order, so every intersection and mask sees the features
    in the order the original ids give. Returns (frames, n)."""
    all_ids = np.unique(np.concatenate([ids for frame in frames for ids, _ in frame]))
    n, body = len(all_ids), np.asarray(body)
    flat = []
    for frame in frames:
        seg = np.repeat(np.arange(len(frame)), [len(ids) for ids, _ in frame])
        rows = np.searchsorted(all_ids, np.concatenate([ids for ids, _ in frame]))
        uv = np.concatenate([np.reshape(uv, (-1, 2)) for _, uv in frame])
        flat.append((rows + body[seg] * n, uv, seg))
    return flat, n


def _camera(frame, k: int):
    """Camera k's (rows, pixels) of a flattened frame."""
    rows, uv, seg = frame
    return rows[seg == k], uv[seg == k]


class _TrackTable:
    """Structure estimates of n features for each of B pose filters, a (B, n)
    table flattened to rows: live[i] marks a row with an estimate, means[i]
    is its point and covs[i] its structure covariance (monocular chains)."""

    def __init__(self, n_features: int, n_filters: int = 1):
        self.n = n_features
        self.live = np.zeros(n_filters * n_features, dtype=bool)
        self.means = np.zeros((n_filters * n_features, 3))
        self.covs = np.zeros((n_filters * n_features, 3, 3))

    def upsert(self, rows, means, covs=None):
        self.live[rows] = True
        self.means[rows] = means
        if covs is not None:
            self.covs[rows] = covs


def _pair_matches(frame, pairs):
    """(pair, rows, pixels in each camera, epipolar distances) of the features
    each stereo pair sees in common at a flattened frame. A camera's rows are
    unique (rendered ids are distinct, read_tracks rejects repeats), in any
    order."""
    for pair in pairs:
        ids_a, uv_a = _camera(frame, pair.cam_a)
        ids_b, uv_b = _camera(frame, pair.cam_b)
        common, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
        if len(common):
            pa, pb = uv_a[ia], uv_b[ib]
            yield pair, common, pa, pb, stereo.epipolar_distances(pair.F, pa, pb)


def _measurement_batch(frame, cams: CameraStack, pairs, store: _TrackTable, x, pcfg):
    """Measurements of known-structure features at one frame for every
    filter of the stack: a stereo rig with its pairs, or monocular chains
    with none, linearised at the states x. Pair observations failing the
    epipolar gate are dropped for the frame, and ekf.measure drops points
    behind their camera. Also returns each filter's count of distinct
    features measured."""
    usable = store.live.copy() if pairs else store.live
    for _, common, _, _, dist in _pair_matches(frame, pairs):
        usable[common[dist > pcfg.epipolar_tol_px]] = False

    rows, uv, seg = frame
    keep = usable[rows]
    batch = ekf.measure(x, cams, rows[keep], uv[keep], seg[keep], store.means[rows[keep]])
    measured = np.zeros(len(store.live), dtype=bool)
    measured[batch.ids] = True
    return batch, np.count_nonzero(measured.reshape(len(x), store.n), axis=1)


def _update_or_skip(state: ekf.PoseFilterState, batch, cams: CameraStack, frame: int):
    """Pose EKF update of every filter with one frame's batch. A filter with
    no measurements or a degenerate update keeps its predicted state, tagged
    'ekf-skip'; a non-finite state aborts. Returns (state, tag per filter)."""
    state, skipped = ekf.pose_update(state, batch, cams)
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.P))):
        raise EstimationFailure(f"filter state became non-finite at frame {frame}")
    return state, ["ekf-skip" if skip else "ekf" for skip in skipped]


# ---------------------------------------------------------------------------
# Overlapping (stereo) layout
# ---------------------------------------------------------------------------

def _match_and_triangulate(
    frame, rig: CameraRig, pairs, pose: Pose, pcfg: PipelineConfig, store: _TrackTable
) -> int:
    """Stereo-match each pair at one frame, gate on the epipolar distance,
    triangulate with the given pose, and upsert the results. Returns the
    number of accepted matches."""
    accepted = 0
    for pair, common, pa, pb, dist in _pair_matches(frame, pairs):
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
    One pose filter takes every camera's rows: the segmented kernels with
    B = 1 and one segment per rig camera.
    """
    if not frames:
        raise InputError("empty observation stream")
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    cams = CameraStack.of(rig.cameras, np.zeros(len(rig.cameras), dtype=int))
    frames, n_features = _compact_ids(frames, cams.body)
    pairs = [stereo.make_stereo_pair(rig, a, b) for a, b in rig.stereo_pairs()]
    store = _TrackTable(n_features)

    pose0 = Pose.identity()
    n_matched = _match_and_triangulate(frames[0], rig, pairs, pose0, pcfg, store)
    if n_matched < pcfg.min_matches:
        raise InsufficientFeatures(
            f"frame 0 produced {n_matched} validated matches (< {pcfg.min_matches})"
        )
    series = PoseEstimateSeries(np.zeros((len(frames), 3)), np.zeros((len(frames), 3)),
                                ["init"], [{"features": n_matched}])
    if len(frames) == 1:
        return series

    # Lowe seed at frame 1 from the reference camera's tracked features.
    ids1, uv1 = _camera(frames[1], 0)
    mask = store.live[ids1]
    if ideal_init and truth is not None:
        pose1 = truth.pose(1)
    else:
        pose1 = lowe_pose(store.means[ids1[mask]], uv1[mask], rig.camera(0).intrinsics, pose0)
    vel = pose1.as_vector() - pose0.as_vector()
    state = ekf.make_pose_filter(pose1.as_vector(), vel, tuning)
    series.d[1], series.angles[1] = pose1.d, pose1.angles
    series.methods.append("ideal-seed" if ideal_init else "lowe")
    series.diagnostics.append({"features": int(mask.sum())})

    for j in range(2, len(frames)):
        state = ekf.pose_predict(state)
        diag: dict = {"retriangulated": False}

        batch, count = _measurement_batch(frames[j], cams, pairs, store, state.x, pcfg)
        if count[0] < pcfg.redetect_threshold:
            _match_and_triangulate(frames[j - 1], rig, pairs, series.pose(j - 1), pcfg, store)
            diag["retriangulated"] = True
            batch, count = _measurement_batch(frames[j], cams, pairs, store, state.x, pcfg)
        diag["features"] = int(count[0])

        state, methods = _update_or_skip(state, batch, cams, j)
        series.d[j], series.angles[j] = state.x[0, :3], state.x[0, 3:6]
        series.methods.append(methods[0])
        series.diagnostics.append(diag)
    return series


# ---------------------------------------------------------------------------
# Non-overlapping layout
# ---------------------------------------------------------------------------

def _run_chains(frames, rig_cameras, tuning, pcfg, local_truth=None, ideal_points=None):
    """The monocular chains of the given cameras stepped in lockstep as one
    stack of pose filters, each in its camera's own initial frame:
    orthographic init (or ideal_points), structure EKFs, Lowe seed (or
    local_truth (B, 6)), pose EKF, depletion backtracking. Frame 0, the
    seeds and re-detections run per chain, all else once per frame. Returns
    local poses (F, B, 6) and per frame a list of per-chain diagnostics."""
    n_chains = len(rig_cameras)
    intr = [c.intrinsics for c in rig_cameras]
    cams = CameraStack.of([Camera(np.zeros(3), np.eye(3), i) for i in intr], np.arange(n_chains))
    frames, n_features = _compact_ids(frames, cams.body)
    store = _TrackTable(n_features, n_chains)

    diags, vec1 = [[], []], np.empty((n_chains, 6))
    for k in range(n_chains):
        rows0, uv0 = _camera(frames[0], k)
        if len(rows0) < pcfg.min_matches:
            raise InsufficientFeatures(f"camera saw {len(rows0)} features at frame 0")
        init_pts = (back_project(uv0, intr[k], pcfg.init_depth)
                    if ideal_points is None else ideal_points[k])
        store.upsert(rows0, init_pts, ekf.initial_structure_covariance(tuning, len(rows0)))
        diags[0].append({"features": len(rows0), "redetected": False})
        if len(frames) > 1:
            rows1, uv1 = _camera(frames[1], k)
            mask = store.live[rows1]
            vec1[k] = local_truth[k] if local_truth is not None else lowe_pose(
                store.means[rows1[mask]], uv1[mask], intr[k], Pose.identity()).as_vector()
            diags[1].append({"features": int(mask.sum()), "redetected": False})
    if len(frames) == 1:
        return np.zeros((1, n_chains, 6)), diags[:1]
    state = ekf.make_pose_filter(vec1, vec1, tuning)  # velocity seed: pose1 - identity
    locals_ = [np.zeros((n_chains, 6)), vec1.copy()]
    _structure_pass(store, frames[1], vec1, cams, tuning)

    for j in range(2, len(frames)):
        state = ekf.pose_predict(state)
        rows, _, seg = frames[j]
        depleted = np.bincount(seg[store.live[rows]], minlength=n_chains) < pcfg.redetect_threshold
        for k in np.flatnonzero(depleted):
            _redetect(store, _camera(frames[j - 1], k), locals_[j - 1][k], intr[k], pcfg, tuning)

        batch, count = _measurement_batch(frames[j], cams, [], store, state.x, pcfg)
        state, methods = _update_or_skip(state, batch, cams, j)
        locals_.append(state.x[:, :6].copy())
        diags.append([{"redetected": bool(depleted[k]), "features": int(count[k]),
                       "method": methods[k]} for k in range(n_chains)])
        _structure_pass(store, frames[j], locals_[j], cams, tuning)
    return np.array(locals_), diags


def _structure_pass(store: _TrackTable, frame, x, cams: CameraStack, tuning):
    """Update the structure filters of every chain's observed live features
    with the poses x held fixed; features behind their camera are left
    untouched."""
    rows, uv, seg = frame
    live = store.live[rows]
    rows = rows[live]
    means, covs, front = ekf.structure_update_batch(
        store.means[rows], store.covs[rows], uv[live], x, cams, seg[live], tuning.r_px**2
    )
    store.means[rows[front]] = means
    store.covs[rows[front]] = covs


def _redetect(store: _TrackTable, prev_obs, prev_vec, intr, pcfg, tuning):
    """Backtracked re-detection: orthographically initialize, at the
    previous frame's estimated pose, every feature observed there that has
    no live structure. Existing tracks keep their refined estimates."""
    ids_p, uv_p = prev_obs
    fresh = ~store.live[ids_p]
    if not np.any(fresh):
        return
    cam_pts = back_project(uv_p[fresh], intr, pcfg.init_depth)
    world_pts = cam_pts @ rot_from_angles(prev_vec[3:6]).T + prev_vec[:3]
    store.upsert(ids_p[fresh], world_pts, ekf.initial_structure_covariance(tuning, len(cam_pts)))


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
    estimate through the rigidity mapping with unit scales, all frames and
    cameras in one call) and 'RC' (the rigidity-constrained fusion per
    frame: per-axis medians of the cam1..cam4 angles plus the solved
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
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    local_truth = ideal_points = None
    if ideal_init and truth is not None:
        if n_frames > 1:
            local_truth = fusion.true_local_pose(truth.pose(1), cams)
        if scene is not None:
            ideal_points = [(scene[frames[0][k][0]] - cam.D) @ cam.R
                            for k, cam in enumerate(rig.cameras)]
    locals_, diags = _run_chains(frames, rig.cameras, tuning, pcfg, local_truth, ideal_points)

    d, angles = fusion.local_to_body_pose(locals_, cams)
    out = {f"cam{k + 1}": PoseEstimateSeries(d[:, k], angles[:, k], ["local"] * n_frames,
                                             [diag[k] for diag in diags])
           for k in range(4)}

    rc = PoseEstimateSeries(np.zeros((n_frames, 3)), np.zeros((n_frames, 3)),
                            ["init"] + ["rc"] * (n_frames - 1), [{"scales": [1.0] * 4}])
    prev_scales = np.ones(4)
    for j in range(1, n_frames):
        result = fusion.fuse_pose(locals_[j, :, :3], angles[j], cams, prev_scales)
        prev_scales = result.scales
        rc.d[j], rc.angles[j] = result.pose.d, result.pose.angles
        rc.diagnostics.append({
            "scales": [float(s) for s in result.scales],
            "ill_conditioned": result.ill_conditioned,
            "residual": result.residual,
        })
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


def read_tracks(path, n_cams: int):
    """Parse a tracks CSV for a rig of n_cams cameras into a per-frame,
    per-camera stream, each camera's rows in file order.

    Feature ids are any non-negative integers; a (cam, frame, feature) row
    may appear once. Camera indices run below n_cams and reach n_cams - 1,
    and every frame up to the last has a row, so the stream is no larger
    than the file. Malformed content raises InputError naming the offending
    line, or the first frame without rows.
    """
    lines, keys, uv = _read_csv(path, TRACKS_HEADER, n_int=3)
    _reject_rows(path, lines, np.any(keys < 0, axis=1), "negative cam/frame/feature")
    _reject_rows(path, lines, ~np.all(np.isfinite(uv), axis=1), "non-finite pixel")
    cam, frame, feature = keys.T
    _reject_rows(path, lines, cam >= n_cams, f"camera index beyond the rig's {n_cams} cameras")
    by_key = np.lexsort((feature, cam, frame))   # stable: file order among equal keys
    repeat = np.zeros(len(lines), dtype=bool)
    repeat[by_key[1:]] = np.all(keys[by_key[1:]] == keys[by_key[:-1]], axis=1)
    _reject_rows(path, lines, repeat, "repeated (cam, frame, feature) row")
    if cam.max() + 1 < n_cams:
        raise InputError(f"{path}: tracks cover {cam.max() + 1} cameras, the rig file has {n_cams}")
    present = np.unique(frame)
    gaps = np.flatnonzero(present != np.arange(len(present)))
    if len(gaps):
        raise InputError(f"{path}: frame {gaps[0]} has no rows, but frame {present[-1]} does")

    order = np.lexsort((cam, frame))
    groups = frame[order] * n_cams + cam[order]
    bounds = np.searchsorted(groups, np.arange(len(present) * n_cams + 1))
    ids, uv = feature[order], uv[order]
    return [
        [(ids[bounds[g]:bounds[g + 1]], uv[bounds[g]:bounds[g + 1]])
         for g in range(j * n_cams, (j + 1) * n_cams)]
        for j in range(len(present))
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
    rotations = rot_from_angles(angles)
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
