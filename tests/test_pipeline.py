import json
import tracemalloc

import numpy as np
import pytest

from reference import pixels, rc_fusion, scripted_trajectory, stream_of, to_camera
from rigpose.errors import (
    BehindCamera,
    Diverged,
    InputError,
    InsufficientMatches,
    LengthMismatch,
)
from rigpose.geometry import (
    CameraStack,
    default_nonoverlap_rig,
    default_overlap_rig,
    rot_from_angles,
    view_points,
)
from rigpose.pipeline import (
    PipelineConfig,
    PoseEstimateSeries,
    lowe_pose,
    pose_error_report,
    read_tracks,
    read_truth,
    run_nonoverlap_sequence,
    run_stereo_sequence,
    write_poses,
    write_tracks,
    write_truth,
)
from rigpose.simulate import (
    Observations,
    SimConfig,
    build_union,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
    slice_stream,
)


def rig_stack(rig):
    # every camera of the rig on one body, as the stereo filter holds them
    return CameraStack.of(rig.cameras, np.zeros(len(rig), dtype=int))


def stereo_pairs(rig):
    """(camera a, camera b, fundamental matrix) of each stereo pair."""
    from rigpose.stereo import fundamental_from_calib

    return [(a, b, fundamental_from_calib(rig_stack(rig), a, b)) for a, b in rig.stereo_pairs()]


def compact_and_match(frames, rig, pcfg=None):
    """A stereo stream, or its per-frame lists, compacted, matched and gated
    as run_stereo_sequence does it: (stream, frame views, n features, pairs,
    gate, matches)."""
    from rigpose.pipeline import _compact_ids, _stereo_matches

    stream, compact, n_features = _compact_ids(stream_of(frames), np.zeros(len(rig), dtype=int))
    tol = (pcfg or PipelineConfig()).epipolar_tol_px
    gate, matches = _stereo_matches(stream, rig_stack(rig), rig.stereo_pairs(), n_features, tol)
    return stream, compact, n_features, stereo_pairs(rig), gate, matches


def matched_pairs(stream, matches, pairs, j):
    """Each pair's matched (rows, pixels in camera a, pixels in camera b) at
    frame j, in row order. The frame's matches hold the pairs one after
    another, in pair order."""
    a, b = matches.ab[matches.at[j]:matches.at[j + 1]].T
    index = {cam_a: i for i, (cam_a, _, _) in enumerate(pairs)}
    pair = np.array([index[k] for k in stream.seg[a].tolist()], dtype=int)
    assert np.all(np.diff(pair) >= 0)
    assert np.all((stream.starts[j] <= a) & (a < stream.starts[j + 1]))
    assert np.all((stream.starts[j] <= b) & (b < stream.starts[j + 1]))
    np.testing.assert_array_equal(stream.rows[a], stream.rows[b])
    out = []
    for i, (_, cam_b, _) in enumerate(pairs):
        a_i, b_i = a[pair == i], b[pair == i]
        assert np.all(stream.seg[b_i] == cam_b)
        assert np.all(np.diff(stream.rows[a_i]) > 0)
        out.append((stream.rows[a_i], stream.uv[a_i], stream.uv[b_i]))
    return out


def render_run(rig, cfg, traj=None, seed_index=0):
    seeds = run_seed_sequences(cfg.seed, seed_index + 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[seed_index])
    scene = gen_scene(cfg, scene_rng)
    if traj is None:
        traj = gen_trajectory(cfg, traj_rng)
    frames = render_sequence(scene, traj, rig.cameras, cfg.noise_sigma, noise_ss)
    return scene, traj, frames


# ---------------------------------------------------------------------------
# Lowe's method
# ---------------------------------------------------------------------------

def spread_points(rng, n):
    return np.stack(
        [rng.uniform(-0.25, 0.25, n), rng.uniform(-0.18, 0.18, n), rng.uniform(0.7, 1.0, n)],
        axis=-1,
    )


def one_camera(cam, n):
    """The stack of one camera at the body origin and the segments of the n
    matches it sees."""
    return CameraStack.of([cam], [0]), np.zeros(n, dtype=int)


def test_lowe_exact_init_is_fixed_point():
    rng = np.random.default_rng(0)
    cam = default_overlap_rig().cameras[0]
    intr = cam.intrinsics
    truth = np.array([0.01, -0.02, 0.005, 0.015, 0.01, -0.02])
    pts = spread_points(rng, 30)
    cams, seg = one_camera(cam, len(pts))
    _, uv, *_ = view_points(pts, rot_from_angles(truth[3:])[None], truth[None, :3], cams, seg)
    est = lowe_pose(pts, uv, cams, seg, truth)
    # the pixels and Lowe place the points through one kernel: no residual
    np.testing.assert_array_equal(est, truth)
    residual = uv - pixels(to_camera(est, cam, pts), intr)
    assert (residual**2).sum() < 1e-12


def test_lowe_recovers_perturbed_pose():
    rng = np.random.default_rng(1)
    cam = default_overlap_rig().cameras[0]
    intr = cam.intrinsics
    for _ in range(10):
        truth = rng.uniform(-0.02, 0.02, 6)
        pts = spread_points(rng, 50)
        uv = pixels(to_camera(truth, cam, pts), intr)
        init = truth + rng.uniform(-0.01, 0.01, 6)
        est = lowe_pose(pts, uv, *one_camera(cam, len(pts)), init)
        np.testing.assert_allclose(est, truth, atol=1e-8)


def points_seen_by(rng, pose, cam, n):
    """n world points spread in front of rig camera cam with the body at the
    pose row: spread_points in the camera's frame, placed in the world."""
    rot = rot_from_angles(pose[3:])
    return pose[:3] + (rot @ cam.D) + spread_points(rng, n) @ (rot @ cam.R).T


@pytest.mark.parametrize("body", ["one", "own"])
@pytest.mark.parametrize("seen_by", [[1], [1, 2]])
def test_lowe_recovers_the_body_pose_through_cameras_off_the_body_origin(seen_by, body):
    # Camera 1 of the non-overlapping rig has D != 0 and R != I; with camera
    # 2 as well, the seed of a rigid filter over several cameras. Every
    # camera of the stack is placed on the one body, whatever its index.
    rng = np.random.default_rng(5)
    rig = default_nonoverlap_rig()
    assert np.any(rig.cameras[1].D != 0) and np.any(rig.cameras[1].R != np.eye(3))
    cams = CameraStack.of(rig.cameras, np.zeros(4, int) if body == "one" else np.arange(4))
    for _ in range(5):
        truth = rng.uniform(-0.02, 0.02, 6)
        pts = np.concatenate([points_seen_by(rng, truth, rig.cameras[k], 30) for k in seen_by])
        seg = np.repeat(seen_by, 30)
        uv = np.concatenate([pixels(to_camera(truth, rig.cameras[k], pts[seg == k]),
                                    rig.cameras[k].intrinsics) for k in seen_by])
        init = truth + rng.uniform(-0.01, 0.01, 6)
        np.testing.assert_allclose(lowe_pose(pts, uv, cams, seg, init), truth, atol=1e-8)


def test_lowe_insufficient_matches():
    cam = default_overlap_rig().cameras[0]
    pts = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.0, 0.1, 1.0]])
    with pytest.raises(InsufficientMatches):
        lowe_pose(pts, pixels(pts, cam.intrinsics), *one_camera(cam, len(pts)), np.zeros(6))


@pytest.mark.parametrize("depth", [0.0, 1e-6, -0.5])
def test_lowe_rejects_init_with_a_match_at_or_behind_the_camera(depth):
    rng = np.random.default_rng(3)
    cam = default_overlap_rig().cameras[0]
    pts = spread_points(rng, 20)
    uv = pixels(pts, cam.intrinsics)
    pts[7] = [0.01, -0.02, depth]   # at that depth from the camera at init
    with pytest.raises(BehindCamera):
        lowe_pose(pts, uv, *one_camera(cam, len(pts)), np.zeros(6))


def lowe_in_front_only_at(monkeypatch, init):
    """Make ekf.pose_measurement_rows, as lowe_pose calls it, clear front
    for every pose but init; returns the list of poses it placed."""
    from rigpose import pipeline

    placed, rows = [], pipeline.ekf.pose_measurement_rows

    def spy(x, *args):
        placed.append(x[0].copy())
        uv, jac, front = rows(x, *args)
        return uv, jac, front & np.array_equal(x[0], init)

    monkeypatch.setattr(pipeline.ekf, "pose_measurement_rows", spy)
    return placed


def lowe_case():
    """(points, pixels, camera stack, segments, init) with init 0.01 off the
    truth."""
    rng = np.random.default_rng(4)
    cam = default_overlap_rig().cameras[0]
    truth = rng.uniform(-0.02, 0.02, 6)
    pts = spread_points(rng, 40)
    return (pts, pixels(to_camera(truth, cam, pts), cam.intrinsics), *one_camera(cam, len(pts)),
            truth + 0.01)


def test_lowe_raises_diverged_after_its_first_failed_search(monkeypatch):
    # A search whose every candidate puts a match behind the camera ends the
    # solve: one placement of init and 25 candidates, with no repeat of the
    # same search.
    *case, init = lowe_case()
    placed = lowe_in_front_only_at(monkeypatch, init)
    with pytest.raises(Diverged):
        lowe_pose(*case, init)
    assert len(placed) == 1 + 25


def test_lowe_failing_in_its_last_iterations_raises_diverged(monkeypatch):
    # A failed search ends the solve in whatever iteration it comes: with
    # fewer iterations left than five repeats of the search would take, the
    # failure still raises instead of returning init.
    from rigpose import pipeline

    *case, init = lowe_case()
    lowe_in_front_only_at(monkeypatch, init)
    monkeypatch.setattr(pipeline, "LOWE_MAX_ITER", 3)
    with pytest.raises(Diverged):
        lowe_pose(*case, init)


def test_lowe_converges_with_noisy_pixels():
    rng = np.random.default_rng(2)
    cam = default_overlap_rig().cameras[0]
    intr = cam.intrinsics
    truth = np.array([0.01, 0.0, -0.01, 0.0, 0.01, 0.0])
    pts = spread_points(rng, 60)
    uv = pixels(to_camera(truth, cam, pts), intr) + rng.normal(0, 0.5, (60, 2))
    est = lowe_pose(pts, uv, *one_camera(cam, len(pts)), np.zeros(6))
    assert np.abs(est - truth).max() < 5e-3


# ---------------------------------------------------------------------------
# error report
# ---------------------------------------------------------------------------

def series_from(x):
    return PoseEstimateSeries(np.asarray(x), ["test"] * len(x), [{}] * len(x))


def test_error_report_zero_for_exact_series():
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=3), np.random.default_rng(3))
    np.testing.assert_array_equal(pose_error_report(series_from(traj.x), traj), np.zeros(6))


def test_error_report_constant_offset():
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=4), np.random.default_rng(4))
    series = series_from(traj.x + [0.01, 0, 0, 0, 0, 0])
    errors = pose_error_report(series, traj)
    np.testing.assert_allclose(errors, [0.01, 0, 0, 0, 0, 0], atol=1e-15)


def test_error_report_matches_brute_force():
    rng = np.random.default_rng(5)
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=30, seed=5), rng)
    ests = np.array([traj.x[j] + rng.normal(0, 0.01, 6) for j in range(len(traj))])
    errors = pose_error_report(series_from(ests), traj)
    brute = np.abs(ests[1:] - traj.x[1:]).mean(axis=0)
    np.testing.assert_allclose(errors, brute, atol=1e-15)


def test_error_report_angle_shifted_by_two_pi_is_no_error():
    # The same rotation written with its angles shifted by +-2 pi.
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=7), np.random.default_rng(7))
    shift = 2 * np.pi * np.array([1.0, -1.0, 1.0]) * (np.arange(len(traj))[:, None] % 2)
    series = series_from(traj.x + np.hstack([np.zeros_like(shift), shift]))
    np.testing.assert_allclose(pose_error_report(series, traj), np.zeros(6), atol=1e-12)


def test_error_report_wraps_angles_only():
    # A translation error above pi is a distance, not an angle: it is reported
    # as it is, while the same error on an angle is taken modulo 2 pi.
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=8), np.random.default_rng(8))
    series = series_from(traj.x + [4.0, 0, 0, 4.0, 0, 0])
    np.testing.assert_allclose(pose_error_report(series, traj),
                               [4.0, 0, 0, 2 * np.pi - 4.0, 0, 0], atol=1e-12)


def test_error_report_scores_the_other_euler_branch_as_no_error():
    # (alpha + pi, pi - beta, gamma + pi) is the truth's rotation on the other
    # Euler branch, here wrapped into [-pi, pi); per angle it is about pi off.
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=9), np.random.default_rng(9))
    other = traj.x[:, 3:] * [1.0, -1.0, 1.0] + np.pi
    series = series_from(np.hstack([traj.x[:, :3] + 0.01, (other + np.pi) % (2 * np.pi) - np.pi]))
    np.testing.assert_allclose(pose_error_report(series, traj), [0.01] * 3 + [0.0] * 3,
                               atol=1e-12)
    assert np.allclose(rot_from_angles(series.x[:, 3:]), rot_from_angles(traj.x[:, 3:]))


def test_error_report_length_mismatch():
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=20, seed=6), np.random.default_rng(6))
    short = series_from(np.zeros((1, 6)))
    with pytest.raises(LengthMismatch):
        pose_error_report(short, traj)


# ---------------------------------------------------------------------------
# stereo pipeline
# ---------------------------------------------------------------------------

def test_stereo_static_truth_noiseless():
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=3000, n_frames=30, noise_sigma=0.0, seed=7)
    traj = scripted_trajectory(30, np.zeros(6))
    _, _, frames = render_run(rig, cfg, traj=traj)
    series = run_stereo_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))
    assert np.abs(series.x[:, :3]).max() < 1e-6
    assert np.abs(series.x[:, 3:]).max() < 1e-6


def test_stereo_noisy_run_matches_reported_magnitudes():
    # sigma = 0.5 px on the default motion ranges: errors of order 1e-3.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=3000, n_frames=100, noise_sigma=0.5, seed=8)
    _, traj, frames = render_run(rig, cfg)
    series = run_stereo_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))
    errors = pose_error_report(series, traj)
    assert np.all(errors[:3] <= 0.01)
    assert np.all(errors[3:] <= 0.01)


def test_stereo_forced_depletion_triggers_retriangulation_at_threshold():
    # Keep exactly 49 tracked features from frame 40 on: with the default
    # 50-feature threshold, re-triangulation must fire at frame 40 exactly.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=6000, n_frames=60, noise_sigma=0.0, seed=9)
    traj = scripted_trajectory(60, np.zeros(6))
    _, _, frames = render_run(rig, cfg, traj=traj)
    # only stereo-matched features carry structure and count as tracked
    ids0 = np.intersect1d(frames[0][0][0], frames[0][1][0])
    assert len(ids0) >= 50
    keep = set(int(f) for f in ids0[:49])

    filtered = []
    for j, frame in enumerate(frames):
        if j < 40:
            filtered.append(frame)
            continue
        per_cam = []
        for ids, uv in frame:
            mask = np.fromiter((int(f) in keep for f in ids), bool, len(ids))
            per_cam.append((ids[mask], uv[mask]))
        filtered.append(per_cam)

    series = run_stereo_sequence(stream_of(filtered), rig,
                                 pcfg=PipelineConfig(redetect_threshold=50))
    events = [j for j, diag in enumerate(series.diagnostics) if diag.get("retriangulated")]
    assert 40 in events
    assert all(j >= 40 for j in events)
    assert len(series) == 60
    # a 50-feature frame must NOT trigger: rerun keeping 50
    keep = set(int(f) for f in ids0[:50])
    filtered50 = []
    for j, frame in enumerate(frames):
        if j < 40:
            filtered50.append(frame)
            continue
        per_cam = []
        for ids, uv in frame:
            mask = np.fromiter((int(f) in keep for f in ids), bool, len(ids))
            per_cam.append((ids[mask], uv[mask]))
        filtered50.append(per_cam)
    series50 = run_stereo_sequence(stream_of(filtered50), rig,
                                   pcfg=PipelineConfig(redetect_threshold=50))
    assert 40 not in [j for j, d in enumerate(series50.diagnostics) if d.get("retriangulated")]


def test_stereo_retriangulated_structure_consistent_with_pose():
    # After a re-triangulation event the refreshed features must reproject
    # within 2 sigma for >= 95% of them.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=50, noise_sigma=0.5, seed=10)
    _, traj, frames = render_run(rig, cfg)
    pcfg = PipelineConfig(redetect_threshold=45)  # force frequent refreshes
    series = run_stereo_sequence(frames, rig, pcfg=pcfg)
    events = [j for j, diag in enumerate(series.diagnostics) if diag.get("retriangulated")]
    assert events, "expected at least one re-triangulation event"

    from rigpose.pipeline import _match_and_triangulate, _TrackTable

    j = events[0]
    pose = series.x[j - 1]
    stream, compact, n_features, _, _, matches = compact_and_match(frames, rig, pcfg)
    store = _TrackTable(n_features)
    _match_and_triangulate(stream, j - 1, rig_stack(rig), matches, pose[None], store)
    residuals = []
    view = compact[j - 1]
    for k, cam in enumerate(rig.cameras):
        ids, uv = view.rows[view.seg == k], view.uv[view.seg == k]
        mask = store.live[ids]
        pts = store.means[ids[mask]]
        predicted = pixels(to_camera(pose, cam, pts), cam.intrinsics)
        residuals.extend(np.linalg.norm(predicted - uv[mask], axis=1))
    residuals = np.array(residuals)
    assert np.mean(residuals < 2 * 0.5 * 2) >= 0.95  # 2 sigma per coordinate


def test_stereo_measures_each_frame_once_with_retriangulations(monkeypatch):
    # Each frame from 2 on counts its tracked features before it measures,
    # so a re-triangulated frame is measured once, like any other.
    from rigpose import ekf

    rig = default_overlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=50, noise_sigma=0.5, seed=10)
    _, _, frames = render_run(rig, cfg)
    calls, measure = [], ekf.measure
    monkeypatch.setattr(ekf, "measure", lambda *args: calls.append(1) or measure(*args))
    series = run_stereo_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=45))
    assert any(diag.get("retriangulated") for diag in series.diagnostics)
    assert len(calls) == cfg.n_frames - 2


def test_stereo_series_is_causal_prefix_stable():
    # Poses emitted before a depletion event equal those of a run truncated
    # at the event: the series is append-only and processing is causal.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=2500, n_frames=40, noise_sigma=0.5, seed=11)
    _, _, frames = render_run(rig, cfg)
    pcfg = PipelineConfig(redetect_threshold=20)
    full = run_stereo_sequence(frames, rig, pcfg=pcfg)
    truncated = run_stereo_sequence(stream_of(list(frames)[:25]), rig, pcfg=pcfg)
    np.testing.assert_array_equal(full.x[:25], truncated.x)


def test_stereo_seeds_frame_1_from_the_truth_it_is_handed():
    # Without a truth, Lowe's method seeds frame 1; a given truth is the seed.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=3000, n_frames=10, noise_sigma=0.5, seed=8)
    _, traj, frames = render_run(rig, cfg)
    pcfg = PipelineConfig(redetect_threshold=20)
    plain = run_stereo_sequence(frames, rig, pcfg=pcfg)
    assert plain.methods[1] == "lowe"
    seeded = run_stereo_sequence(frames, rig, pcfg=pcfg, truth=traj)
    assert seeded.methods[1] == "ideal-seed"
    assert seeded.x[1].tobytes() == traj.x[1].tobytes()


def test_stereo_seed_reads_no_row_the_gate_drops():
    # The first camera-0 row of frame 1, moved 30 or 60 px along v, fails
    # its pair's 2 px gate either way, so the gate drops its feature from
    # every camera of frame 1 and neither seed reads it.
    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=4, noise_sigma=0.5, seed=19))
    ids, uv = frames[1][0]
    # the front pair matches the feature at frames 0 and 1
    assert ids[0] in np.intersect1d(frames[0][0][0], frames[0][1][0])
    assert ids[0] in frames[1][1][0]
    seeds = []
    for dv in (30.0, 60.0):
        moved, moved_uv = [list(entries) for entries in frames], uv.copy()
        moved_uv[0, 1] += dv
        moved[1][0] = (ids, moved_uv)
        seeds.append(run_stereo_sequence(stream_of(moved), rig).x[1])
    assert seeds[0].tobytes() == seeds[1].tobytes()


def test_stereo_records_count_the_measurable_features_at_every_frame():
    # At frames 0 and 1 a record counts the distinct features with live
    # structure that the gate keeps, over every camera; from frame 2 on it
    # counts those measured, the same features where none is behind a camera.
    from rigpose.pipeline import _match_and_triangulate, _TrackTable

    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=2000, n_frames=6, noise_sigma=0.5, seed=3))
    series = run_stereo_sequence(frames, rig)
    assert not any(record["retriangulated"] for record in series.diagnostics)
    stream, views, n_features, _, gate, matches = compact_and_match(frames, rig)
    store = _TrackTable(n_features)
    _match_and_triangulate(stream, 0, rig_stack(rig), matches, np.zeros((1, 6)), store)
    for j, view in enumerate(views[:3]):
        measurable = store.live[view.rows] & gate[view.span]
        assert series.diagnostics[j]["features"] == len(np.unique(view.rows[measurable])), j


@pytest.mark.parametrize("frame, count", [(0, 0), (1, 3)])
def test_stereo_requires_enough_initial_features(frame, count):
    rig = default_overlap_rig()
    from rigpose.errors import InsufficientFeatures

    if frame == 0:
        # each pair sees features 0 and 1 at one pixel in both cameras:
        # parallel rays, so no match triangulates
        frames = [[(np.array([0, 1]), np.array([[320.0, 240.0], [322.0, 241.0]]))] * 4]
    else:
        # every camera keeps at frame 1 only 3 features that the front pair
        # triangulates at frame 0, so Lowe's seed has 3 to solve from
        _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=3, noise_sigma=0.5,
                                                 seed=19))
        frames = [list(entries) for entries in frames]
        keep = np.intersect1d(frames[0][0][0], frames[0][1][0])[:3]
        frames[1] = [(ids[np.isin(ids, keep)], uv[np.isin(ids, keep)]) for ids, uv in frames[1]]
    with pytest.raises(InsufficientFeatures,
                       match=rf"the stereo filter has {count} features with structure at "
                             rf"frame {frame} \(need at least 4\)"):
        run_stereo_sequence(stream_of(frames), rig)


@pytest.mark.parametrize("frame", [0, 1])
def test_nonoverlap_names_the_camera_without_enough_initial_features(frame):
    # Camera 2 keeps 3 of its features at frame 0, or at frame 1 where Lowe
    # seeds it: the start names it, its count and the minimum, though the
    # cameras before it have enough.
    from rigpose.errors import InsufficientFeatures

    rig = default_nonoverlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=3, noise_sigma=0.5, seed=19))
    frames = [list(entries) for entries in frames]
    ids, uv = frames[frame][2]
    frames[frame][2] = (ids[:3], uv[:3])
    assert all(len(ids) >= 4 for ids, _ in frames[frame][:2])
    with pytest.raises(InsufficientFeatures,
                       match=rf"camera 2 has 3 features with structure at frame {frame} "
                             r"\(need at least 4\)"):
        run_nonoverlap_sequence(stream_of(frames), rig)


@pytest.mark.parametrize("run, rig, name", [
    (run_stereo_sequence, default_overlap_rig(), "the stereo filter"),
    (run_nonoverlap_sequence, default_nonoverlap_rig(), "camera 0"),
], ids=["stereo", "nonoverlap"])
def test_a_stream_without_rows_names_the_first_filter_at_frame_0(run, rig, name):
    # No camera sees a feature at any frame: the start fails as it does on
    # too few features, not on the empty arrays.
    from rigpose.errors import InsufficientFeatures

    empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    with pytest.raises(InsufficientFeatures,
                       match=rf"{name} has 0 features with structure at frame 0 "
                             r"\(need at least 4\)"):
        run(stream_of([[empty] * len(rig)] * 3), rig)


def test_sequences_reject_frames_without_an_entry_per_camera():
    frames = stream_of([[(np.array([0, 1]), np.array([[320.0, 240.0], [322.0, 241.0]]))] * 2] * 2)
    with pytest.raises(InputError, match="entry per camera"):
        run_stereo_sequence(frames, default_overlap_rig())
    with pytest.raises(InputError, match="entry per camera"):
        run_nonoverlap_sequence(frames, default_nonoverlap_rig())


@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
def test_sequences_reject_a_camera_that_repeats_an_id_in_process(layout):
    # The stream's constructor is the one repeat check, so an in-process
    # stream meets it as a tracks file does: camera 0 sees its first feature
    # twice at frame 0, and the sequence never starts.
    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
    run = run_stereo_sequence if layout == "stereo" else run_nonoverlap_sequence
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=3, noise_sigma=0.5, seed=19))
    frames = [list(frame) for frame in frames]
    ids, uv = frames[0][0]
    frames[0][0] = (np.append(ids, ids[0]), np.vstack([uv, uv[:1] + 1.0]))
    with pytest.raises(InputError, match=f"camera 0 sees feature {ids[0]} twice at frame 0"):
        run(stream_of(frames), rig, pcfg=PipelineConfig(redetect_threshold=15))


def test_stereo_two_camera_rig():
    from rigpose.geometry import CameraRig

    rig4 = default_overlap_rig()
    rig2 = CameraRig(rig4.cameras[:2], layout="overlapping")
    cfg = SimConfig(n_points=3000, n_frames=40, noise_sigma=0.5, seed=12)
    _, traj, frames = render_run(rig2, cfg)
    series = run_stereo_sequence(frames, rig2, pcfg=PipelineConfig(redetect_threshold=20))
    errors = pose_error_report(series, traj)
    assert np.all(errors < 0.05)


# ---------------------------------------------------------------------------
# non-overlapping pipeline
# ---------------------------------------------------------------------------

def test_nonoverlap_ideal_init_noiseless_reference_chain():
    # Ideal init (true structure, true seed) isolates the filter from the
    # depth-guess error: the reference chain must track far tighter than the
    # orthographic-init run on the same data. The absolute bound is the
    # oracle-computed magnitude: a non-iterated EKF's one-step
    # linearization on the default per-frame velocity surprises leaves a
    # few 1e-3 of lag, so 5e-3 per parameter.
    rig = default_nonoverlap_rig()
    cfg = SimConfig(n_points=4000, n_frames=60, noise_sigma=0.0, seed=13)
    scene, traj, frames = render_run(rig, cfg)
    pcfg = PipelineConfig(redetect_threshold=20)
    ideal = run_nonoverlap_sequence(
        frames, rig, pcfg=pcfg, truth=traj, scene=scene
    )
    for name in ("cam1", "cam2", "cam3", "cam4"):
        assert ideal[name].methods[:2] == ["init", "ideal-seed"], name
        assert set(ideal[name].methods[2:]) <= {"ekf", "ekf-skip"}, name
    errors = pose_error_report(ideal["cam1"], traj)
    assert np.all(errors < 5e-3)
    plain = run_nonoverlap_sequence(frames, rig, pcfg=pcfg)
    assert errors.mean() < 0.5 * pose_error_report(plain["cam1"], traj).mean()


def test_nonoverlap_returns_five_series_with_diagnostics():
    rig = default_nonoverlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=30, noise_sigma=0.5, seed=14)
    _, traj, frames = render_run(rig, cfg)
    out = run_nonoverlap_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))
    assert sorted(out) == ["RC", "cam1", "cam2", "cam3", "cam4"]
    for series in out.values():
        assert len(series) == 30
    rc = out["RC"]
    assert "scales" in rc.diagnostics[1]
    assert len(rc.diagnostics[1]["scales"]) == 4


def test_nonoverlap_rc_median_resists_worst_camera():
    # The fused rotation is a per-axis median over four cameras, so its
    # error cannot be dominated by the worst perpendicular camera.
    rig = default_nonoverlap_rig()
    wins = 0
    for i in range(3):
        cfg = SimConfig(n_points=2000, n_frames=60, noise_sigma=0.5, seed=100 + i)
        _, traj, frames = render_run(rig, cfg)
        out = run_nonoverlap_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))
        rc_rot = pose_error_report(out["RC"], traj)[3:].mean()
        worst_rot = max(
            pose_error_report(out["cam2"], traj)[3:].mean(),
            pose_error_report(out["cam4"], traj)[3:].mean(),
        )
        if rc_rot <= worst_rot:
            wins += 1
    assert wins >= 2


def test_nonoverlap_rc_invariant_to_camera_relabeling():
    # Relabeling cameras 2..4 permutes the median inputs and the scale
    # system's row blocks, neither of which changes the fused pose.
    from rigpose.geometry import CameraRig

    rig = default_nonoverlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=25, noise_sigma=0.5, seed=19)
    _, traj, frames = render_run(rig, cfg)
    base = run_nonoverlap_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))

    perm = [0, 3, 1, 2]  # reference camera stays first
    rig_perm = CameraRig([rig.cameras[i] for i in perm], layout="non-overlapping")
    frames_perm = slice_stream(frames, perm)
    permuted = run_nonoverlap_sequence(
        frames_perm, rig_perm, pcfg=PipelineConfig(redetect_threshold=20)
    )
    np.testing.assert_allclose(
        base["RC"].x[:, 3:], permuted["RC"].x[:, 3:], atol=1e-12
    )
    np.testing.assert_allclose(
        base["RC"].x[:, :3], permuted["RC"].x[:, :3], atol=1e-10
    )


def test_nonoverlap_chain_alone_matches_chain_in_lockstep():
    # Batch size does not change results: a monocular chain stepped alone
    # gets the same local poses and diagnostics, bit for bit, as when it is
    # stepped together with the other three, re-detections included.
    from rigpose.ekf import FilterTuning
    from rigpose.pipeline import _run_chains

    rig = default_nonoverlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=2000, n_frames=40, noise_sigma=0.5,
                                             seed=25))
    tuning, pcfg = FilterTuning(), PipelineConfig(redetect_threshold=20)
    together, tags, diags = _run_chains(frames, rig_stack(rig), tuning, pcfg)
    assert sum(d[k]["redetected"] for d in diags for k in range(4)) >= 3
    for k in range(4):
        alone, tags_k, diags_k = _run_chains(slice_stream(frames, [k]),
                                             CameraStack.of([rig.cameras[k]], [0]), tuning, pcfg)
        np.testing.assert_array_equal(alone[:, 0], together[:, k])
        assert [t[0] for t in tags_k] == [t[k] for t in tags]
        assert [d[0] for d in diags_k] == [d[k] for d in diags]


def series_bytes(series):
    """A series' poses, tags and diagnostics as bytes."""
    return series.x.tobytes(), json.dumps([series.methods, series.diagnostics]).encode()


def run_layout(layout, frames, rig, **kwargs):
    """The series an estimator of the layout gives, by name."""
    if layout == "stereo":
        return {"stereo": run_stereo_sequence(frames, rig, **kwargs)}
    return run_nonoverlap_sequence(frames, rig, **kwargs)


@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
def test_estimators_give_the_same_bytes_on_a_slice_and_on_its_columns(layout):
    # A slice ranks its ids among the distinct ids of the union stream it was
    # cut from, which holds more ids than the slice; a stream built from the
    # slice's columns ranks them among its own. Both keep id order, so every
    # series comes out the same.
    union, (map_non, map_over) = build_union([default_nonoverlap_rig(), default_overlap_rig()])
    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=40, noise_sigma=0.5, seed=32)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(cfg.seed, 1)[0])
    obs = render_sequence(gen_scene(cfg, scene_rng), gen_trajectory(cfg, traj_rng), union,
                          cfg.noise_sigma, noise_ss)
    sliced = slice_stream(obs, map_over if layout == "stereo" else map_non)
    own = Observations(sliced.ids.copy(), sliced.uv.copy(), sliced.sizes.copy())
    assert len(sliced.distinct) == len(obs.distinct) > len(own.distinct)
    pcfg = PipelineConfig(redetect_threshold=40)
    from_slice, from_columns = (run_layout(layout, s, rig, pcfg=pcfg) for s in (sliced, own))
    for name in from_slice:
        assert series_bytes(from_slice[name]) == series_bytes(from_columns[name])


def test_nonoverlap_series_are_mapped_from_the_chains_bit_for_bit():
    # Camera 0 is the reference (D = 0, R = I): its body series is chain 0's
    # local translation and the decomposition of chain 0's rotation. RC's
    # angles are the rotation median of the cam1..cam4 angles as reported.
    from rigpose.ekf import FilterTuning
    from rigpose.fusion import fuse_rotation_median
    from rigpose.geometry import euler_angles
    from rigpose.pipeline import _run_chains

    rig = default_nonoverlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=2000, n_frames=40, noise_sigma=0.5,
                                             seed=25))
    pcfg = PipelineConfig(redetect_threshold=20)
    locals_, _, diags = _run_chains(frames, rig_stack(rig), FilterTuning(), pcfg)
    assert sum(d[k]["redetected"] for d in diags for k in range(4)) >= 3
    out = run_nonoverlap_sequence(frames, rig, pcfg=pcfg)
    cam1 = out["cam1"].x
    np.testing.assert_array_equal(cam1[:, :3], locals_[:, 0, :3])
    np.testing.assert_array_equal(cam1[:, 3:], euler_angles(rot_from_angles(locals_[:, 0, 3:])))
    np.testing.assert_allclose(cam1[:, 3:], locals_[:, 0, 3:], rtol=0, atol=1e-15)
    body = np.stack([out[f"cam{k}"].x[:, 3:] for k in range(1, 5)], axis=1)
    for j in range(1, len(frames)):
        np.testing.assert_array_equal(out["RC"].x[j, 3:], fuse_rotation_median(body[j]))


def assert_rc_is_the_per_frame_fusion(rc, locals_, cams):
    """The RC series' poses and per-frame diagnostics, and those fuse_series
    gives, have the bits of fusing the chains' local poses one frame at a
    time."""
    from rigpose.fusion import fuse_series, local_to_body_pose

    body = local_to_body_pose(locals_, cams)
    x, want = rc_fusion(locals_, body, cams)
    for poses, records in [(rc.x, rc.diagnostics), fuse_series(locals_, body, cams)]:
        assert poses.tobytes() == x.tobytes()
        assert records[0] == {"scales": [1.0] * 4}
        assert len(records) == len(locals_)
        for diag, (scales, ill, residual) in zip(records[1:], want, strict=True):
            assert diag == {"scales": [float(s) for s in scales], "ill_conditioned": ill,
                            "residual": residual}


@pytest.mark.parametrize("case", ["desk", "still-then-moving"])
def test_nonoverlap_rc_equals_the_per_frame_fusion(monkeypatch, case):
    # The RC stage builds every frame's median and scale system at once;
    # the result keeps the bits of fusing one frame at a time, degenerate
    # frames (the still ones) included.
    from rigpose import fusion
    from rigpose.simulate import Trajectory

    rig = default_nonoverlap_rig()
    if case == "desk":
        cfg, traj = SimConfig(n_points=2000, n_frames=100, noise_sigma=0.5, seed=2025), None
    else:
        cfg = SimConfig(n_points=2000, n_frames=20, noise_sigma=0.0, seed=26)
        moving = scripted_trajectory(14, [0.003, 0.001, -0.002, 0.004, -0.003, 0.005])
        traj = Trajectory(np.vstack([np.zeros((6, 6)), moving.x]))
    _, _, frames = render_run(rig, cfg, traj=traj)
    seen = []
    to_body = fusion.local_to_body_pose
    monkeypatch.setattr(fusion, "local_to_body_pose",
                        lambda local, cams: seen.append((local, cams)) or to_body(local, cams))
    rc = run_nonoverlap_sequence(frames, rig, pcfg=PipelineConfig(redetect_threshold=20))["RC"]
    (locals_, cams), = seen
    assert_rc_is_the_per_frame_fusion(rc, locals_, cams)
    ill_frames = [diag["ill_conditioned"] for diag in rc.diagnostics[1:]]
    if case == "still-then-moving":
        assert all(ill_frames[:6]) and not all(ill_frames)


def test_nonoverlap_rc_carries_solved_scales_over_degenerate_frames(monkeypatch):
    # Exact local poses whose translations carry per-camera scale errors:
    # frames 1-5 solve the scales 1 / c, and frames 6-9, back at the
    # identity rotation, have no right-hand side and keep them.
    from rigpose import pipeline
    from rigpose.fusion import true_local_pose

    rig = default_nonoverlap_rig()
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    turn = np.array([0, 1, 2, 3, 2, 1, 0, 0, 0, 0])[:, None] * [0.02, -0.01, 0.03]
    body = np.hstack([np.arange(10)[:, None] * [0.01, -0.004, 0.007], turn])
    c = np.array([2.0, 0.5, 1.5, 0.8])
    locals_ = np.stack([true_local_pose(pose, cams) for pose in body])
    locals_[..., :3] *= c[:, None]
    monkeypatch.setattr(pipeline, "_run_chains",
                        lambda *args: (locals_, [["ekf"] * 4] * 10, [[{"method": "ekf"}] * 4] * 10))
    rc = run_nonoverlap_sequence([None] * 10, rig)["RC"]
    assert [diag["ill_conditioned"] for diag in rc.diagnostics[1:]] == [False] * 5 + [True] * 4
    np.testing.assert_allclose(rc.diagnostics[-1]["scales"], 1 / c, rtol=1e-9)
    assert_rc_is_the_per_frame_fusion(rc, locals_, cams)


def test_nonoverlap_requires_four_camera_rig():
    rig = default_overlap_rig()
    with pytest.raises(InputError):
        run_nonoverlap_sequence([[]], rig)


@pytest.mark.parametrize("n_truth", [1, 3, 5], ids=["1", "F-1", "F+1"])
@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
def test_estimators_reject_a_truth_of_another_length(layout, n_truth):
    # A truth seeds the filters: it needs one row per frame of the F = 4.
    from rigpose.simulate import Trajectory

    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
    _, traj, frames = render_run(rig, SimConfig(n_points=2000, n_frames=4, seed=6))
    truth = Trajectory(np.resize(traj.x, (n_truth, 6)))
    with pytest.raises(LengthMismatch, match=f"truth has {n_truth} frames, the observations "
                                             "have 4"):
        run_layout(layout, frames, rig, truth=truth)


def test_nonoverlap_rc_fallback_scales_on_first_frames():
    # Early frames have little rotation: the scale solve may be degenerate
    # and must fall back to the previous scales without crashing.
    rig = default_nonoverlap_rig()
    cfg = SimConfig(n_points=2000, n_frames=10, noise_sigma=0.0, seed=15)
    traj = scripted_trajectory(10, [0.003, 0.001, -0.002, 0.0, 0.0, 0.0])  # pure translation
    scene, _, frames = render_run(rig, cfg, traj=traj)
    out = run_nonoverlap_sequence(
        frames, rig, pcfg=PipelineConfig(redetect_threshold=20),
        truth=traj, scene=scene,
    )
    rc = out["RC"]
    assert all(diag.get("ill_conditioned", False) for diag in rc.diagnostics[1:])
    np.testing.assert_allclose(
        np.array(rc.diagnostics[-1]["scales"]), np.ones(4), atol=1e-12
    )


# ---------------------------------------------------------------------------
# tracks / poses CSV
# ---------------------------------------------------------------------------

def test_tracks_roundtrip_bit_exact(tmp_path):
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=1500, n_frames=8, noise_sigma=0.5, seed=16)
    _, _, frames = render_run(rig, cfg)
    path = tmp_path / "tracks.csv"
    write_tracks(path, frames)
    back = read_tracks(path, len(rig))
    assert len(back) == len(frames)
    for fa, fb in zip(frames, back):
        for (ids_a, uv_a), (ids_b, uv_b) in zip(fa, fb):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(uv_a, uv_b)


def test_pipeline_identical_on_tracks_file(tmp_path):
    # The offline path must reproduce the in-process poses exactly.
    rig = default_overlap_rig()
    cfg = SimConfig(n_points=2500, n_frames=25, noise_sigma=0.5, seed=17)
    _, _, frames = render_run(rig, cfg)
    path = tmp_path / "tracks.csv"
    write_tracks(path, frames)
    back = read_tracks(path, len(rig))
    pcfg = PipelineConfig(redetect_threshold=20)
    direct = run_stereo_sequence(frames, rig, pcfg=pcfg)
    offline = run_stereo_sequence(back, rig, pcfg=pcfg)
    err = np.abs(direct.x - offline.x)
    assert err[:, :3].max() < 1e-12
    assert err[:, 3:].max() < 1e-12


def test_read_tracks_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("camera,frame,feature,u,v\n0,0,1,1.0,2.0\n")
    with pytest.raises(InputError, match="line 1"):
        read_tracks(path, 2)


def test_read_tracks_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    for bad_row, what in (("0,zero,2,1.0,2.0", "invalid literal"), ("0,0,1,3.0,4.0", "repeated")):
        path.write_text(f"cam,frame,feature,u,v\n0,0,1,1.0,2.0\n{bad_row}\n1,0,1,1.0,2.0\n")
        with pytest.raises(InputError, match=f"line 3: {what}"):
            read_tracks(path, 2)


def test_read_tracks_names_the_first_repeated_line_in_file_order(tmp_path):
    # The stream sorts frame 0 before frame 1, so its first repeat is line
    # 5; the file's first repeated row is line 4.
    path = tmp_path / "tracks.csv"
    path.write_text("cam,frame,feature,u,v\n0,1,7,1.0,2.0\n0,0,5,1.0,2.0\n0,1,7,3.0,4.0\n"
                    "0,0,5,3.0,4.0\n1,0,5,1.0,2.0\n")
    with pytest.raises(InputError, match="line 4: repeated"):
        read_tracks(path, 2)


def test_read_tracks_rejects_frames_and_cameras_beyond_the_rows(tmp_path):
    # The stream is sized by the rows: a frame past a frame without rows, or
    # a camera index past the rig's, is rejected before the stream is built.
    path = tmp_path / "tracks.csv"
    for rows, what in (("0,0,1,1.0,2.0\n1,100000000,1,1.0,2.0\n", "frame 1 has no rows"),
                       ("0,0,1,1.0,2.0\n1000000000,0,2,1.0,2.0\n", "line 3: camera index")):
        path.write_text("cam,frame,feature,u,v\n" + rows)
        with pytest.raises(InputError, match=what):
            read_tracks(path, 2)


def test_read_tracks_groups_rows_per_frame_and_camera_in_file_order(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text("cam,frame,feature,u,v\n0,2,7,1.0,2.0\n\n0,0,9,3.0,4.0\n0,0,5,5.0,6.0\n"
                    "1,1,4,7.0,8.0\n")
    frames = read_tracks(path, 2)
    assert [[ids.tolist() for ids, _ in frame] for frame in frames] == [
        [[9, 5], []], [[], [4]], [[7], []]]
    np.testing.assert_array_equal(frames[0][0][1], [[3.0, 4.0], [5.0, 6.0]])
    assert frames[1][0][1].shape == (0, 2)


def test_read_tracks_reads_crlf_and_cr_line_ends_like_lf(tmp_path):
    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=4, noise_sigma=0.5, seed=16))
    path = tmp_path / "tracks.csv"
    write_tracks(path, frames)
    lf = path.read_text()
    assert "\r" not in lf
    want = read_tracks(path, len(rig))
    for end in ("\r\n", "\r"):
        path.write_bytes(lf.replace("\n", end).encode())
        got = read_tracks(path, len(rig))
        assert len(got) == len(want)
        for fa, fb in zip(want, got):
            for (ids_a, uv_a), (ids_b, uv_b) in zip(fa, fb):
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_array_equal(uv_a, uv_b)


def test_read_tracks_names_the_line_of_a_row_split_by_a_form_feed(tmp_path):
    # Lines end at \n, \r\n or \r only: a form feed inside a row leaves one
    # line of nine fields, and later rows keep their line numbers.
    path = tmp_path / "tracks.csv"
    path.write_bytes(b"cam,frame,feature,u,v\r\n0,0,1,1.0,2.0\x0c1,0,1,3.0,4.0\r\n")
    with pytest.raises(InputError, match="line 2: expected 5 fields, got 9"):
        read_tracks(path, 2)
    path.write_text("cam,frame,feature,u,v\n1,0,1,1.0,2.0\x0c\n\n0,0,1,3.0,4.0\n0,0,1,5.0,6.0\n")
    with pytest.raises(InputError, match="line 5: repeated"):
        read_tracks(path, 2)


def test_read_tracks_peak_memory_per_row(tmp_path):
    # The reader keeps no per-line strings: a paper-scale file (about 72k
    # rows; the stream it returns holds 25 B per row) peaks below 128 B per
    # row of traced allocation.
    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=10_000, n_frames=100, noise_sigma=0.5,
                                             seed=41))
    path = tmp_path / "tracks.csv"
    write_tracks(path, frames)
    n_rows = sum(len(ids) for frame in frames for ids, _ in frame)
    assert n_rows > 50_000
    tracemalloc.start()
    try:
        back = read_tracks(path, len(rig))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(ids) for frame in back for ids, _ in frame) == n_rows
    assert peak / n_rows <= 128, peak / n_rows


def shuffled_tracks(tmp_path, frames, rig):
    """frames written to a tracks file whose rows are shuffled, read back:
    each camera's rows come in unsorted file order."""
    path = tmp_path / "tracks.csv"
    write_tracks(path, stream_of(frames))
    header, *rows = path.read_text().splitlines()
    np.random.default_rng(19).shuffle(rows)
    path.write_text("\n".join([header] + rows) + "\n")
    return read_tracks(path, len(rig))


def test_stereo_matches_on_shuffled_rows_equal_the_default_intersection(tmp_path):
    # A shuffled tracks file gives each camera unique rows in unsorted file
    # order; the pairing that assumes unique rows must equal the default one.
    from rigpose import stereo as st

    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=3, noise_sigma=0.5, seed=19))
    frames = shuffled_tracks(tmp_path, frames, rig)
    stream, compact, _, pairs, gate, matches = compact_and_match(frames, rig)
    tol = PipelineConfig().epipolar_tol_px
    for j, frame in enumerate(compact):
        failed = []
        passing = matched_pairs(stream, matches, pairs, j)
        for (cam_a, cam_b, fm), (rows, pa, pb) in zip(pairs, passing):
            ids_a, uv_a = frame.rows[frame.seg == cam_a], frame.uv[frame.seg == cam_a]
            ids_b, uv_b = frame.rows[frame.seg == cam_b], frame.uv[frame.seg == cam_b]
            assert np.any(np.diff(ids_a) < 0) and np.any(np.diff(ids_b) < 0)
            ref, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
            dist = st.epipolar_distances(fm, uv_a[ia], uv_b[ib])
            assert len(rows) > 0
            np.testing.assert_array_equal(rows, ref[dist <= tol])
            np.testing.assert_array_equal(pa, uv_a[ia][dist <= tol])
            np.testing.assert_array_equal(pb, uv_b[ib][dist <= tol])
            failed.append(ref[dist > tol])
        np.testing.assert_array_equal(gate[frame.span], ~np.isin(frame.rows, np.concatenate(failed)))


def _rendered_stereo_frames():
    rig = default_overlap_rig()
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=3, noise_sigma=0.5, seed=19))
    return rig, [[(ids.copy(), uv.copy()) for ids, uv in frame] for frame in frames]


def _pair_without_common_feature(tmp_path):
    # frame 1: camera 1 keeps only features camera 0 does not see
    rig, frames = _rendered_stereo_frames()
    ids, uv = frames[1][1]
    alone = ~np.isin(ids, frames[1][0][0])
    frames[1][1] = (ids[alone], uv[alone])
    return rig, frames


def _frame_without_matches(tmp_path):
    # frame 1: cameras 1 and 3 keep only features their partners 0 and 2 do
    # not see, so no pair matches at that frame
    rig, frames = _rendered_stereo_frames()
    for a, b in rig.stereo_pairs():
        ids, uv = frames[1][b]
        alone = ~np.isin(ids, frames[1][a][0])
        frames[1][b] = (ids[alone], uv[alone])
    return rig, frames


def _camera_without_rows(tmp_path):
    rig, frames = _rendered_stereo_frames()
    frames[2][3] = (np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    return rig, frames


def _ids_near_2_to_62(tmp_path):
    rig, frames = _rendered_stereo_frames()
    return rig, [[(ids + 2**62, uv) for ids, uv in frame] for frame in frames]


def _shuffled_tracks_rows(tmp_path):
    rig, frames = _rendered_stereo_frames()
    return rig, shuffled_tracks(tmp_path, frames, rig)


GATE_STREAMS = [
    pytest.param(_shuffled_tracks_rows, id="shuffled-tracks-rows"),
    pytest.param(_pair_without_common_feature, id="pair-without-common-feature"),
    pytest.param(_frame_without_matches, id="frame-without-matches"),
    pytest.param(_camera_without_rows, id="camera-without-rows"),
    pytest.param(_ids_near_2_to_62, id="ids-near-2**62"),
]


def assert_gate_matches_reference(frames, rig):
    """The once-per-sequence match-and-gate pass agrees, frame by frame,
    with the per-frame reference. Returns (gate, frame views)."""
    from reference import stereo_gate

    stream, compact, _, pairs, gate, matches = compact_and_match(frames, rig)
    id_of_row = np.unique(np.concatenate([ids for frame in frames for ids, _ in frame]))
    reference = stereo_gate(frames, pairs, PipelineConfig().epipolar_tol_px)
    for j, (frame, view, (failed, passing)) in enumerate(zip(frames, compact, reference)):
        for k, (ids, _) in enumerate(frame):
            kept = gate[view.span][view.seg == k]
            np.testing.assert_array_equal(kept, [int(f) not in failed for f in ids])
        for (rows, uv_a, uv_b), (ids, pa, pb) in zip(matched_pairs(stream, matches, pairs, j),
                                                     passing):
            np.testing.assert_array_equal(id_of_row[rows], ids)
            np.testing.assert_array_equal(uv_a, pa)
            np.testing.assert_array_equal(uv_b, pb)
    return gate, compact


@pytest.mark.parametrize("ids", [
    [5, 3, 3, 4, 5, 3],
    [9, 2, 9, 40, 2],
    [2**62 + 1, 7, 2**62 + 1, 2**62],  # near the int64 limit
    [42],
], ids=["repeats", "gaps", "near-2**62", "one"])
def test_compact_ids_rank_ids_as_the_inverse_of_the_sorted_distinct_ids(ids):
    # Two cameras, the second seeing the ids of the first reversed. A camera
    # sees an id once per frame, so each frame holds one id per camera and
    # the repeats fall in other frames; one frame of them all is rejected.
    from rigpose.pipeline import _compact_ids

    ids = np.array(ids, dtype=np.int64)
    frame = [(ids, np.zeros((len(ids), 2))), (ids[::-1], np.ones((len(ids), 2)))]
    if len(np.unique(ids)) < len(ids):
        with pytest.raises(InputError, match="camera 0 sees feature .* twice at frame 0"):
            stream_of([frame])
    frames = [[(f[j:j + 1], p[j:j + 1]) for f, p in frame] for j in range(len(ids))]
    distinct, inverse = np.unique(ids, return_inverse=True)
    stream, views, n = _compact_ids(stream_of(frames), [0, 1])
    np.testing.assert_array_equal(stream.rows,
                                  np.column_stack([inverse, inverse[::-1] + n]).ravel())
    for view in views:
        np.testing.assert_array_equal(view.seg, [0, 1])
    assert n == len(distinct)


@pytest.mark.parametrize("make_stream", GATE_STREAMS)
def test_sequence_gate_equals_the_per_frame_reference(tmp_path, make_stream):
    rig, frames = make_stream(tmp_path)
    assert_gate_matches_reference(frames, rig)


def test_feature_failing_one_pair_drops_from_every_camera_of_that_frame_only():
    # Feature p is matched by the front pair and, under the same id, by the
    # back pair. At frame 1 its camera-1 pixel leaves the front pair's
    # epipolar line by 10 px while the back pair still passes it: p drops
    # from all four cameras at frame 1 and stays in all four at frames 0, 2.
    from reference import stereo_gate

    rig, frames = _rendered_stereo_frames()
    pairs = stereo_pairs(rig)
    ref = stereo_gate(frames, pairs, PipelineConfig().epipolar_tol_px)
    front = set.intersection(*(set(passing[0][0].tolist()) for _, passing in ref))
    back = set.intersection(*(set(passing[1][0].tolist()) for _, passing in ref))
    p, q = min(front), min(back)
    for frame in frames:
        for k in (2, 3):
            ids, uv = frame[k]
            assert p not in ids
            frame[k] = (np.where(ids == q, p, ids), uv)
    ids, uv = frames[1][1]
    uv_a = frames[1][0][1][frames[1][0][0] == p][0]
    line = pairs[0][2] @ [uv_a[0], uv_a[1], 1.0]
    uv[ids == p] += 10.0 * line[:2] / np.hypot(line[0], line[1])

    ref = stereo_gate(frames, pairs, PipelineConfig().epipolar_tol_px)
    assert p in ref[1][0] and p in ref[1][1][1][0] and p not in ref[1][1][0][0]
    gate, compact = assert_gate_matches_reference(frames, rig)
    for j, frame in enumerate(frames):
        seen = np.concatenate([ids for ids, _ in frame]) == p
        assert np.count_nonzero(seen) == 4
        assert np.all(gate[compact[j].span][seen] == (j != 1))


def test_two_pairs_triangulating_one_feature_keep_the_later_pairs_point():
    # The back pair of this rig faces forward too, so both pairs match and
    # triangulate the features all four cameras see at frame 0, each pair
    # to its own noisy point.
    # One triangulation call takes both pairs' matches; the table keeps the
    # later pair's point, as upserting pair after pair does, and the earlier
    # pair's point where only it triangulates the feature.
    from rigpose.geometry import Camera, CameraRig
    from rigpose.pipeline import _match_and_triangulate, _TrackTable
    from rigpose.stereo import triangulate_batch

    rig = CameraRig([Camera(np.zeros(3), np.eye(3)), Camera([0.1, 0.0, 0.0], np.eye(3)),
                     Camera([0.0, 0.0, -0.1], np.eye(3)), Camera([0.1, 0.0, -0.1], np.eye(3))],
                    layout="overlapping")
    _, _, frames = render_run(rig, SimConfig(n_points=1500, n_frames=2, noise_sigma=0.5, seed=23))
    stream, _, n_features, pairs, _, matches = compact_and_match(frames, rig)
    cams, poses = rig_stack(rig), np.zeros((1, 6))
    store = _TrackTable(n_features)
    _match_and_triangulate(stream, 0, cams, matches, poses, store)

    want, per_pair = _TrackTable(n_features), []
    a, b = matches.ab[matches.at[0]:matches.at[1]].T
    for cam_a, _, _ in pairs:
        a_i, b_i = a[stream.seg[a] == cam_a], b[stream.seg[a] == cam_a]
        pts, ok = triangulate_batch(poses, cams, stream.seg[a_i], stream.seg[b_i],
                                    stream.uv[a_i], stream.uv[b_i])
        want.upsert(stream.rows[a_i[ok]], pts[ok])
        per_pair.append(dict(zip(stream.rows[a_i[ok]].tolist(), pts[ok])))
    both = sorted(per_pair[0].keys() & per_pair[1].keys())
    assert len(both) >= 20
    assert all(per_pair[0][r].tobytes() != per_pair[1][r].tobytes() for r in both)
    np.testing.assert_array_equal(store.live, want.live)
    assert store.means.tobytes() == want.means.tobytes()
    assert store.means[both].tobytes() == np.array([per_pair[1][r] for r in both]).tobytes()


def test_poses_and_truth_csv_roundtrip(tmp_path):
    traj = gen_trajectory(SimConfig(n_points=10, n_frames=15, seed=18), np.random.default_rng(18))
    truth_path = tmp_path / "truth.csv"
    write_truth(truth_path, traj)
    back = read_truth(truth_path)
    np.testing.assert_array_equal(back.x, traj.x)

    series = series_from(traj.x)
    poses_path = tmp_path / "poses.csv"
    write_poses(poses_path, {"stereo": series})
    text = poses_path.read_text().splitlines()
    assert text[0] == "frame,tx,ty,tz,alpha,beta,gamma,method"
    assert len(text) == 1 + 15
