"""End-to-end sequence estimators for the two rig layouts.

Both estimators consume one flat observation stream (simulate.Observations:
id and pixel columns with per-frame, per-camera row bounds), rendered by the
simulator or read from a tracks CSV, and emit a pose series with per-frame
diagnostics. Each renumbers the stream's ids to track-table rows in one
search of the stream's sorted distinct ids (sorted once per run) and steps
frames through views of its columns.

One driver runs every filter stack of either layout, frame by frame, on
one CameraStack per layout that every kernel, replenish and seed reads.
Every frame reads one row rule: a frame's measurable rows are its rows
with live structure that the stereo gate keeps. Frame 0 replenishes every
filter at the identity pose and checks each filter's count of distinct
measurable features against MIN_MATCHES. Frame 1 seeds each filter from
the truth, or, after the same check, by Lowe's method from the identity on
the measurable rows of every camera on its body through that stack, and
that pose also seeds the velocity. Each later frame steps in one order:
predict; count each pose filter's distinct measurable features; replenish
the filters below the tracked-feature threshold from the previous frame at
the pose emitted there; measure and update once. No filter is re-seeded. A
layout supplies only its replenish, the stereo gate, and the chains'
structure pass. Each filter's record holds its layout's replenish flag
(retriangulated or redetected) and its count of distinct features
(measurable at frames 0 and 1, measured from frame 2 on) at every frame,
built by one helper. The frame loop does only the work that reads the
filter state: everything that depends on the pixels alone is done once per
sequence, and a frame's measurable rows are read from the track table when
the frame steps.

Overlapping (stereo) layout: each pair is matched and gated on its
fundamental matrix once per sequence, as both depend only on the pixels.
The gate drops a feature from every camera of a frame where some pair's
match fails it, and all pairs' passing matches are kept as one array of
stream-row pairs in (frame, pair, feature) order with per-frame bounds.
One pose EKF consumes every camera's gated pixels; replenishing
re-triangulates the previous frame's matches of every pair in one call.

Non-overlapping layout: every camera runs its own monocular chain in its
own initial frame, on the rig's stack with each camera moved to its own
body's origin, with orthographic structure initialization at a configured
depth, per-feature structure EKFs, a Lowe seed, and a pose EKF; the four
chains step in lockstep as one stack of filters, and replenishing
re-detects the depleted chains' untracked features in one call. Both
replenishes place their structure through geometry.back_project on the
filters' CameraStack. Their local poses map to body poses (the per-camera
series) in one call per run, and fusion.fuse_series builds the RC series
from them in one call: the rigidity constraints' per-axis medians of those
body angles and every frame's scale-factor system once per run, then each
frame's solve, a degenerate frame carrying the previous scales over. The
pipeline names none of the fusion's pieces.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections import namedtuple
from dataclasses import dataclass, replace

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
    MAX_MAGNITUDE,
    check_config_fields,
    open_path,
)
from .geometry import (
    CameraRig,
    CameraStack,
    back_project,
    rot_from_angles,
    view_points,
)
from .simulate import Observations, Trajectory, repeated_rows

# The fewest 3D-2D matches Lowe's method solves a pose from, and so the
# fewest measurable features each filter must hold at frame 0, and at frame
# 1 where Lowe seeds it.
MIN_MATCHES = 4


@dataclass
class PipelineConfig:
    """Sequence-level thresholds shared by both layouts."""

    redetect_threshold: int = 50    # replenish when tracked features drop below this
    epipolar_tol_px: float = 2.0    # stereo correspondence gate
    init_depth: float = 1.0         # z0 for orthographic structure init (m)

    def __post_init__(self):
        check_config_fields(self, "pipeline", at_least={"redetect_threshold": 0},
                            positive=("epipolar_tol_px", "init_depth"))


@dataclass
class PoseEstimateSeries(Trajectory):
    """Per-frame pose estimates with a method tag and a diagnostics record
    per frame."""

    methods: list
    diagnostics: list


def _angle_errors(diff: np.ndarray) -> np.ndarray:
    """|diff| per angle; angles that differ by a multiple of 2 pi are one
    rotation, so an error above pi is taken modulo 2 pi."""
    err = np.abs(diff)
    wrap = err > np.pi
    err[wrap] = np.abs((diff[wrap] + np.pi) % (2 * np.pi) - np.pi)
    return err


def pose_error_report(series: PoseEstimateSeries, truth: Trajectory) -> np.ndarray:
    """Mean absolute error per pose parameter (tx, ty, tz, alpha, beta,
    gamma), averaged over frames 1..F-1. Frame 0 is identity by
    construction and is excluded so it cannot dilute the average. Angle
    errors are wrapped modulo 2 pi, and each frame's angles are scored on
    the estimate's nearer Euler branch: (alpha, beta, gamma) and
    (alpha + pi, pi - beta, gamma + pi) are one rotation, and the second
    is taken where its angle errors sum to strictly less."""
    if len(series) != len(truth):
        raise LengthMismatch(f"series has {len(series)} frames, truth has {len(truth)}")
    if len(series) < 2:
        raise InputError("need at least 2 frames to report errors")
    est, true = series.x[1:], truth.x[1:]
    err = np.abs(est - true)
    err[:, 3:] = _angle_errors(est[:, 3:] - true[:, 3:])
    other = _angle_errors(est[:, 3:] * (1.0, -1.0, 1.0) + np.pi - true[:, 3:])
    nearer = other.sum(axis=1) < err[:, 3:].sum(axis=1)
    err[nearer, 3:] = other[nearer]
    return err.mean(axis=0)


# ---------------------------------------------------------------------------
# Lowe's method: damped Gauss-Newton over the six pose parameters
# ---------------------------------------------------------------------------

LOWE_MAX_ITER = 50
LOWE_STEP_TOL = 1e-10


def lowe_pose(points: np.ndarray, pixels: np.ndarray, cams: CameraStack, seg, init) -> np.ndarray:
    """Refine a body pose row (6,) from 3D-2D matches, starting at the pose
    row init, by minimizing the pixel reprojection error. Match i is seen by
    camera seg[i] of the CameraStack cams, and every camera of the stack is
    placed on the one body solved for, whatever its body index.

    Damped Gauss-Newton: each iteration halves its step, up to 24 times,
    until the residual does not increase; a candidate pose that puts a match
    at or behind its camera costs inf. The first search that no halving
    makes cheaper ends the solve: as convergence at a noisy minimum when its
    step is below 1e-8, else with Diverged, in whatever iteration it comes.
    Each candidate pose is placed once, by ekf.pose_measurement_rows, which
    gives both its residual and the rows of the next step. Needs at least
    MIN_MATCHES matches; raises BehindCamera when init puts a match at or
    behind its camera.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points) < MIN_MATCHES:
        raise InsufficientMatches(f"need >= {MIN_MATCHES} matches, got {len(points)}")
    cams, seg = replace(cams, body=np.zeros_like(cams.body)), np.asarray(seg)

    def evaluate(vec):
        uv_pred, jac, front = ekf.pose_measurement_rows(vec[None], cams, seg, points)
        if not front.all():
            return np.inf, None, None
        res = (pixels - uv_pred).ravel()
        return res @ res, res, jac.reshape(-1, 6)

    vec = np.array(init, dtype=float)
    cost, res, j = evaluate(vec)
    if res is None:
        raise BehindCamera("match point behind the camera at the initial pose")
    for _ in range(LOWE_MAX_ITER):
        try:
            step = np.linalg.solve(j.T @ j, j.T @ res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(j, res, rcond=None)
        step_norm = np.linalg.norm(step)
        if step_norm < LOWE_STEP_TOL:
            break
        for scale in 0.5 ** np.arange(25.0):
            cand = vec + scale * step
            cand_cost, cand_res, cand_j = evaluate(cand)
            if cand_cost <= cost * (1.0 + 1e-12):
                break
        else:
            if step_norm < 1e-8:
                break
            raise Diverged(f"every halving of a step of norm {step_norm:.3g} raised the residual")
        vec = cand
        cost, res, j = cand_cost, cand_res, cand_j
        if np.linalg.norm(scale * step) < LOWE_STEP_TOL:
            break
    return vec


# ---------------------------------------------------------------------------
# Track bookkeeping
# ---------------------------------------------------------------------------

# A compacted stream's rows, pixels and row cameras; frame j is rows
# starts[j]:starts[j + 1].
_Stream = namedtuple("_Stream", "rows uv seg starts")
# Views of one frame's rows, pixels and row cameras, and where the frame
# sits in its stream.
_Frame = namedtuple("_Frame", "rows uv seg span")
# Every stereo pair's passing matches: ab (M, 2) holds the stream rows of a
# match's two cameras in (frame, pair, feature) order; frame j is ab
# at[j]:at[j + 1].
_Matches = namedtuple("_Matches", "ab at")


def _compact_ids(obs, body):
    """Renumber the ids of an observation stream (simulate.Observations) in
    one search of its sorted distinct ids (Observations.distinct) to their
    rank i among those n ids: camera k's feature i is row body[k] * n + i of
    a track table. The map keeps id order, so intersections see features in
    id order. Returns (stream, views, n); the stream shares the
    observations' pixels."""
    if obs.n_cams != len(body):
        raise InputError(f"each frame needs one (ids, pixels) entry per camera ({len(body)}), "
                         f"the stream has {obs.n_cams}")
    rows = np.searchsorted(obs.distinct, obs.ids)
    n, (n_frames, n_cams) = len(obs.distinct), obs.sizes.shape
    seg = np.repeat(np.tile(np.arange(n_cams), n_frames), obs.sizes.ravel())
    rows += (np.asarray(body) * n)[seg]
    uv, starts = obs.uv, obs.at[::n_cams]
    views = [_Frame(rows[s:e], uv[s:e], seg[s:e], slice(s, e))
             for s, e in zip(starts[:-1], starts[1:])]
    return _Stream(rows, uv, seg, starts), views, n


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


def _keys(stream, at, n: int):
    """(frame, feature) keys of the stream rows at, in int64: F n can pass
    2**31 on a long tracks file."""
    key = np.searchsorted(stream.starts, at, side="right") - np.int64(1)
    key *= n
    key += stream.rows[at]
    return key


def _stereo_matches(stream, cams, pairs, n: int, tol: float):
    """Match and gate each stereo pair (a, b) of cameras of the stack over a
    whole stream: one intersection of the pair's (frame, feature) keys and
    one epipolar_distances call on its fundamental matrix. The rig has one
    body, so a stream row is its feature's rank; a camera's features are
    unique in a frame (the observation stream's constructor rejects
    repeats), in any order. Returns the gate, a mask over the stream rows (a
    feature failing any pair at a frame leaves every camera of that frame),
    and every pair's passing matches as one _Matches."""
    failed, passed, frame = [], [], []
    for a, b in pairs:
        in_a, in_b = (np.flatnonzero(stream.seg == k) for k in (a, b))
        key, ia, ib = np.intersect1d(_keys(stream, in_a, n), _keys(stream, in_b, n),
                                     assume_unique=True, return_indices=True)
        ab = np.column_stack([in_a[ia], in_b[ib]])
        del in_a, in_b, ia, ib
        ok = stereo.epipolar_distances(stereo.fundamental_from_calib(cams, a, b),
                                       stream.uv[ab[:, 0]], stream.uv[ab[:, 1]]) <= tol
        passed.append(ab[ok])
        frame.append(key[ok] // n)
        failed.append(key[~ok])
    failed, bad = np.concatenate(failed), np.zeros(n, dtype=bool)
    bad[failed % n] = True
    at = np.flatnonzero(bad[stream.rows])   # rows of a feature failing at some frame
    gate = np.ones(len(stream.rows), dtype=bool)
    gate[at[np.isin(_keys(stream, at, n), failed)]] = False
    frame = np.concatenate(frame)
    order = np.argsort(frame, kind="stable")   # (pair, frame, feature) to (frame, pair, feature)
    return gate, _Matches(np.concatenate(passed)[order],
                          np.searchsorted(frame[order], np.arange(len(stream.starts))))


def check_truth(truth, obs) -> None:
    """Raise LengthMismatch unless a given truth has one row per frame of obs."""
    if truth is not None and len(truth) != len(obs):
        raise LengthMismatch(f"truth has {len(truth)} frames, the observations have {len(obs)}")


def _feature_counts(store: _TrackTable, rows):
    """Each filter's count of distinct features among the table rows."""
    seen = np.zeros(len(store.live), dtype=bool)
    seen[rows] = True
    return seen.reshape(-1, store.n).sum(axis=1)


def _run_filters(frames, cams, store, tuning, pcfg, names, flag, replenish, seed=None,
                 gate=None, structure=lambda j, poses: None):
    """Run a stack of pose filters, one per body of the CameraStack cams and
    named by names, over the frames of a compacted stream. A frame's
    measurable rows are its rows with live structure that the gate (a mask
    over the stream's rows) keeps:
    - frame 0: replenish(0, depleted, poses) of every filter at the identity
      pose, then one check of each filter's count of distinct measurable
      features against MIN_MATCHES;
    - frame 1: each filter's row of seed (B, 6), or Lowe's seed from the
      identity on the measurable rows of every camera on its body, after
      the same check; that pose also seeds the velocity;
    - frames 2..: predict; count each filter's distinct measurable features
      at frame j; replenish(j - 1, depleted, poses) the filters whose count
      is below the threshold, at the poses (B, 6) emitted at frame j - 1;
      measure and update once, where ekf.measure drops points behind their
      camera. A filter with no measurements or a degenerate update keeps
      its predicted state, tagged 'ekf-skip'; a non-finite state aborts.
    structure(j, poses) runs after frame 1 and after each step. A frame's
    measurable rows are read from the track table when the frame steps, and
    again after a replenish, so no copy of the table can go stale. Returns
    the poses (F, B, 6) and, per frame and filter, a tag and a record of
    whether it was replenished, under the key flag, and of its count of
    distinct features: measurable at frames 0 and 1, measured from frame 2
    on."""

    def measurable(frame):
        live = store.live[frame.rows]
        return live if gate is None else live & gate[frame.span]

    def record(j, rows, replenished, check=False):
        counts = _feature_counts(store, rows).tolist()
        for name, count in zip(names, counts if check else []):
            if count < MIN_MATCHES:
                raise InsufficientFeatures(f"{name} has {count} features with structure at "
                                           f"frame {j} (need at least {MIN_MATCHES})")
        records.append([{flag: r, "features": c} for r, c in zip(replenished.tolist(), counts)])

    n_filters = len(names)
    replenish(0, np.ones(n_filters, dtype=bool), np.zeros((n_filters, 6)))
    unflagged = np.zeros(n_filters, dtype=bool)   # frames 0 and 1 record no replenish
    poses = np.zeros((len(frames), n_filters, 6))
    tags, records = [["init"] * n_filters], []
    record(0, frames[0].rows[measurable(frames[0])], unflagged, check=True)
    if len(frames) == 1:
        return poses, tags, records
    rows, uv, seg, _ = frames[1]
    keep = measurable(frames[1])
    record(1, rows[keep], unflagged, check=seed is None)
    for b in range(n_filters):
        use = keep & (cams.body[seg] == b)
        poses[1, b] = seed[b] if seed is not None else lowe_pose(
            store.means[rows[use]], uv[use], cams, seg[use], np.zeros(6))
    tags.append(["lowe" if seed is None else "ideal-seed"] * n_filters)
    state = ekf.make_pose_filter(poses[1], poses[1], tuning)   # velocity seed: pose1 - identity
    structure(1, poses[1])
    for j, frame in enumerate(frames[2:], start=2):
        state = ekf.pose_predict(state)
        keep = measurable(frame)
        depleted = _feature_counts(store, frame.rows[keep]) < pcfg.redetect_threshold
        if depleted.any():
            replenish(j - 1, depleted, poses[j - 1])
            keep = measurable(frame)
        rows = frame.rows[keep]
        batch = ekf.measure(state.x, cams, rows, frame.uv[keep], frame.seg[keep], store.means[rows])
        state, skipped = ekf.pose_update(state, batch, cams)
        if not (np.isfinite(state.x).all() and np.isfinite(state.P).all()):
            raise EstimationFailure(f"filter state became non-finite at frame {j}")
        poses[j] = state.x[:, :6]
        tags.append(["ekf-skip" if skip else "ekf" for skip in skipped.tolist()])
        record(j, batch.ids, depleted)
        structure(j, poses[j])
    return poses, tags, records


# ---------------------------------------------------------------------------
# Overlapping (stereo) layout
# ---------------------------------------------------------------------------

def _match_and_triangulate(stream, j, cams, matches, poses, store: _TrackTable) -> None:
    """Triangulate every stereo pair's passing matches at frame j of the
    stream (matched and gated once per sequence) in one call, with the body
    at poses (1, 6), and upsert the valid points. A feature that two pairs
    triangulate keeps the later pair's point."""
    a, b = matches.ab[matches.at[j]:matches.at[j + 1]].T
    pts, ok = stereo.triangulate_batch(poses, cams, stream.seg[a], stream.seg[b],
                                       stream.uv[a], stream.uv[b])
    rows, pts = stream.rows[a[ok]], pts[ok]
    last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
    store.upsert(rows[last], pts[last])


def run_stereo_sequence(
    obs,
    rig: CameraRig,
    tuning: ekf.FilterTuning | None = None,
    pcfg: PipelineConfig | None = None,
    truth: Trajectory | None = None,
) -> PoseEstimateSeries:
    """Estimate the pose sequence of an overlapping (stereo) rig.

    obs: the rig cameras' observations (simulate.Observations).
    A given truth, one row per frame (else LengthMismatch), seeds the filter
    (pose and velocity at frame 1) in place of the Lowe seed. One pose
    filter takes every camera's rows: the segmented kernels with B = 1 and
    one segment per rig camera.
    """
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    check_truth(truth, obs)
    cams = CameraStack.of(rig.cameras, np.zeros(len(rig.cameras), dtype=int))
    stream, frames, n_features = _compact_ids(obs, cams.body)
    gate, matches = _stereo_matches(stream, cams, rig.stereo_pairs(), n_features,
                                    pcfg.epipolar_tol_px)
    store = _TrackTable(n_features)
    poses, tags, records = _run_filters(
        frames, cams, store, tuning, pcfg, ["the stereo filter"], "retriangulated",
        lambda j, depleted, poses: _match_and_triangulate(stream, j, cams, matches, poses, store),
        None if truth is None else truth.x[1:2], gate)
    return PoseEstimateSeries(poses[:, 0], [tag[0] for tag in tags], [rec[0] for rec in records])


# ---------------------------------------------------------------------------
# Non-overlapping layout
# ---------------------------------------------------------------------------

def _run_chains(obs, rig_cams: CameraStack, tuning, pcfg, local_truth=None, scene=None):
    """The monocular chains of the cameras of the rig stack rig_cams (one
    body) stepped in lockstep as one stack of pose filters by _run_filters,
    chain k on body k with its camera at the body's origin along its axes
    (D = 0, R = I), so each runs in its camera's own initial frame: the
    chains' replenish is _redetect, an orthographic init (a given scene's
    points, indexed by the stream's ids, are placed first, through rig_cams
    at the identity body pose, and leave frame 0 nothing to do), the seed
    rows are local_truth (B, 6) where given, and the structure pass runs
    after frame 1 and after every step. Returns local poses (F, B, 6) and
    per frame a list of per-chain tags and one of per-chain records, which
    from frame 2 on carry the chain's tag as "method"."""
    n_chains = len(rig_cams.body)
    cams = replace(rig_cams, D=np.zeros((n_chains, 3)), R=np.tile(np.eye(3), (n_chains, 1, 1)),
                   body=np.arange(n_chains))
    _, frames, n_features = _compact_ids(obs, cams.body)
    store = _TrackTable(n_features, n_chains)
    if scene is not None:   # each frame-0 row's true point in its camera
        true0 = view_points(scene[obs.ids[frames[0].span]], rot_from_angles(np.zeros((1, 3))),
                            np.zeros((1, 3)), rig_cams, frames[0].seg)[0]
        store.upsert(frames[0].rows, true0, ekf.initial_structure_covariance(tuning, len(true0)))

    locals_, tags, records = _run_filters(
        frames, cams, store, tuning, pcfg, [f"camera {k}" for k in range(n_chains)], "redetected",
        lambda j, depleted, poses: _redetect(store, frames[j], depleted, poses, cams, pcfg, tuning),
        local_truth,
        structure=lambda j, poses: _structure_pass(store, frames[j], poses, cams, tuning))
    # A chain's step record names its tag: perfbench/tracer.py counts steps by it.
    for tag, record in zip(tags[2:], records[2:]):
        for t, r in zip(tag, record):
            r["method"] = t
    return locals_, tags, records


def _structure_pass(store: _TrackTable, frame, x, cams: CameraStack, tuning):
    """Update the structure filters of every chain's observed live features
    with the poses x held fixed; features behind their camera are left
    untouched."""
    rows, uv, seg, _ = frame
    live = store.live[rows]
    rows = rows[live]
    means, covs, front = ekf.structure_update_batch(
        store.means[rows], store.covs[rows], uv[live], x, cams, seg[live], tuning.r_px**2
    )
    store.means[rows[front]] = means
    store.covs[rows[front]] = covs


def _redetect(store: _TrackTable, frame, depleted, poses, cams, pcfg, tuning):
    """Re-detection: orthographically initialize, in one back_project call at
    the chains' pose rows poses (B, 6), every row of a frame that belongs to
    a depleted chain and has no live structure, at depth init_depth on its
    ray. A chain's frame 0 is this at the identity pose, where every row is
    fresh; a replenish places the previous frame at the poses emitted there.
    Existing tracks keep their refined estimates."""
    fresh = depleted[cams.body[frame.seg]] & ~store.live[frame.rows]
    if not fresh.any():
        return
    center, ray = back_project(frame.uv[fresh], rot_from_angles(poses[:, 3:]), poses[:, :3], cams,
                               frame.seg[fresh])
    store.upsert(frame.rows[fresh], center + pcfg.init_depth * ray,
                 ekf.initial_structure_covariance(tuning, len(ray)))


def run_nonoverlap_sequence(
    obs,
    rig: CameraRig,
    tuning: ekf.FilterTuning | None = None,
    pcfg: PipelineConfig | None = None,
    truth: Trajectory | None = None,
    scene: np.ndarray | None = None,
) -> dict[str, PoseEstimateSeries]:
    """Estimate pose series from four individually aimed cameras.

    Returns five series: 'cam1'..'cam4' (each camera's own body-pose
    estimate through the rigidity mapping with unit scales, all frames and
    cameras in one call) and 'RC' (fusion.fuse_series of those: per frame
    the per-axis medians of the cam1..cam4 angles plus the reference
    translation at its solved scale).

    A given truth, one row per frame (else LengthMismatch), seeds the
    chains' filters with the true local poses at frame 1, and a given scene
    initializes their structure at the true local positions (scene rows
    indexed by the stream's feature ids).
    """
    tuning = tuning or ekf.FilterTuning()
    pcfg = pcfg or PipelineConfig()
    rig.check_layout("non-overlapping")
    check_truth(truth, obs)
    n_frames = len(obs)
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    local_truth = None
    if truth is not None and n_frames > 1:
        local_truth = fusion.true_local_pose(truth.x[1], cams)
    locals_, tags, records = _run_chains(obs, cams, tuning, pcfg, local_truth, scene)

    body = fusion.local_to_body_pose(locals_, cams)
    out = {f"cam{k + 1}": PoseEstimateSeries(body[:, k], [tag[k] for tag in tags],
                                             [rec[k] for rec in records])
           for k in range(4)}

    x, records = fusion.fuse_series(locals_, body, cams)
    out["RC"] = PoseEstimateSeries(x, ["init"] + ["rc"] * (n_frames - 1), records)
    return out


# ---------------------------------------------------------------------------
# Tracks and poses CSV interfaces
# ---------------------------------------------------------------------------

def write_diagnostics(path, series_by_method: dict[str, PoseEstimateSeries]) -> None:
    """Per-frame diagnostics as JSON lines: feature counts, scale vectors,
    condition flags, and re-triangulation and re-detection events, one record
    per frame per method. A record's method (the series name), frame and tag
    (the series' per-frame tag) win over a diagnostics key of the same name."""
    with open_path(path, "w") as fh:
        for method, series in series_by_method.items():
            for j, diag in enumerate(series.diagnostics):
                head = {"method": method, "frame": j, "tag": series.methods[j]}
                fh.write(json.dumps({**head, **diag, **head}) + "\n")


TRACKS_HEADER = ["cam", "frame", "feature", "u", "v"]
POSES_HEADER = ["frame", "tx", "ty", "tz", "alpha", "beta", "gamma", "method"]
TRUTH_HEADER = ["frame", "tx", "ty", "tz", "alpha", "beta", "gamma"]


def _write_csv(path, header: list[str], rows) -> None:
    with open_path(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _pose_rows(series: Trajectory):
    """`frame,tx,ty,tz,alpha,beta,gamma` rows with full decimal precision."""
    for j, pose in enumerate(series.x):
        yield [j, *(repr(float(x)) for x in pose)]


def write_tracks(path, obs) -> None:
    """Write an observation stream's columns as `cam,frame,feature,u,v` rows
    in stream order, with full decimal precision, so reading it back is
    bit-exact."""
    frame, cam = np.divmod(np.repeat(np.arange(obs.sizes.size), obs.sizes.ravel()), obs.n_cams)
    _write_csv(path, TRACKS_HEADER,
               ([int(k), int(j), int(f), repr(float(u)), repr(float(v))]
                for k, j, f, (u, v) in zip(cam, frame, obs.ids, obs.uv)))


def _records(path):
    """(line number, fields) of each non-empty CSV record after line 1: one per
    row np.loadtxt parses, as both end a line at \\n, \\r\\n or \\r."""
    with open_path(path) as fh:
        fh.readline()
        reader = csv.reader(fh)
        yield from ((reader.line_num + 1, fields) for fields in reader if fields)


def _read_csv(path, header: list[str], n_int: int):
    """Parse a CSV file whose first line is `header` in one np.loadtxt pass
    over the file itself into int64 columns (N, n_int) and float columns,
    skipping empty lines. No line is kept as a string: a malformed file is
    read again to name its first offending line, or only the value of a
    number that Python would parse but numpy does not (such as 1_0)."""
    with open_path(path) as fh:
        first = next(csv.reader([fh.readline()]), [])
        if [h.strip() for h in first] != header:
            raise InputError(f"{path}: line 1: expected header {','.join(header)!r}, "
                             f"got {','.join(first)!r}")
        if all(line == "\n" for line in fh):
            raise InputError(f"{path}: no data rows")
    dtype = np.dtype([("ints", np.int64, n_int), ("floats", float, len(header) - n_int)])
    try:
        data = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          skiprows=1, ndmin=1, encoding="utf-8")
    except ValueError as exc:
        # Name the first offending line; the bulk parser reports rows only.
        for n, row in _records(path):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                np.array([int(x) for x in row[:n_int]], dtype=np.int64)
                [float(x) for x in row[n_int:]]
            except (ValueError, OverflowError) as bad:
                raise InputError(f"{path}: line {n}: {bad}") from None
        raise InputError(f"{path}: {exc}") from None
    return data["ints"], data["floats"]


def _reject_rows(path, bad: np.ndarray, what: str) -> None:
    if np.any(bad):
        line, _ = next(itertools.islice(_records(path), int(np.argmax(bad)), None))
        raise InputError(f"{path}: line {line}: {what}")


def read_tracks(path, n_cams: int) -> Observations:
    """Parse a tracks CSV for a rig of n_cams cameras into an observation
    stream, each camera's rows in file order: one np.loadtxt pass (see
    _read_csv), then one stable sort on the (frame, cam) key. Feature ids
    are any non-negative integers; a (cam, frame, feature) row may appear
    once. Camera indices run below n_cams and reach n_cams - 1, and every
    frame up to the last has a row, so the stream is no larger than the
    file. Malformed content raises InputError naming the offending line, or
    the first frame without rows."""
    keys, uv = _read_csv(path, TRACKS_HEADER, n_int=3)
    cam, frame, feature = keys.T
    _reject_rows(path, (cam | frame | feature) < 0, "negative cam/frame/feature")
    within = (-MAX_MAGNITUDE <= uv) & (uv <= MAX_MAGNITUDE)
    _reject_rows(path, ~(within[:, 0] & within[:, 1]), f"pixel not within +-{MAX_MAGNITUDE:g}")
    _reject_rows(path, cam >= n_cams, f"camera index beyond the rig's {n_cams} cameras")
    if cam.max() + 1 < n_cams:
        raise InputError(f"{path}: tracks cover {cam.max() + 1} cameras, the rig file has {n_cams}")
    # The first frame without rows: N rows leave one at or below frame N.
    seen = np.zeros(len(frame) + 1, dtype=bool)
    seen[np.minimum(frame, len(frame))] = True
    n_frames = np.argmin(seen)
    if n_frames <= frame.max():
        raise InputError(f"{path}: frame {n_frames} has no rows, but frame {frame.max()} does")
    groups = frame * n_cams + cam
    order = np.argsort(groups, kind="stable")
    sizes = np.bincount(groups, minlength=n_frames * n_cams).reshape(n_frames, n_cams)
    ids = feature[order]
    try:
        return Observations(ids, uv.take(order, axis=0), sizes)
    except InputError:   # a camera repeats a feature at a frame: name the first such line
        repeat = np.empty(len(order), dtype=bool)
        repeat[order] = repeated_rows(ids, np.append(0, np.cumsum(sizes)))
        _reject_rows(path, repeat, "repeated (cam, frame, feature) row")
        raise


def write_poses(path, series_by_method: dict[str, PoseEstimateSeries]) -> None:
    _write_csv(path, POSES_HEADER, ([*row, method] for method, series in series_by_method.items()
                                    for row in _pose_rows(series)))


def read_truth(path) -> Trajectory:
    """Parse a `frame,tx,ty,tz,alpha,beta,gamma` ground-truth CSV holding
    each frame 0..N-1 once, in any order."""
    frame, vals = _read_csv(path, TRUTH_HEADER, n_int=1)
    _reject_rows(path, ~np.all(np.isfinite(vals), axis=1), "non-finite truth value")
    order = np.argsort(frame[:, 0], kind="stable")
    if not np.array_equal(frame[order, 0], np.arange(len(frame))):
        raise InputError(f"{path}: frames are not 0..N-1, each once")
    return Trajectory(vals[order])


def write_truth(path, truth: Trajectory) -> None:
    _write_csv(path, TRUTH_HEADER, _pose_rows(truth))
