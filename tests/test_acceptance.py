"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (run with `pytest -s` to see the lines).

The desk-scale comparison (criteria 1 and 2) uses 50 runs x 100 frames x
2,000 scene points at 0.5 px noise with the library-default rigs and
filter tuning; the re-detection threshold and visibility floor are scaled
to the desk feature counts (see README and the config used below).
"""

import time

import numpy as np
import pytest

from reference import pixels, scripted_trajectory, stream_of, to_camera
from rigpose import cli, fusion, harness, pipeline, stereo
from rigpose.ekf import pose_measurement_rows
from rigpose.errors import IllConditioned
from rigpose.geometry import (
    CameraStack,
    default_nonoverlap_rig,
    change_basis,
    default_overlap_rig,
    read_rig,
    rot_from_angles,
    write_rig,
)
from rigpose.pipeline import PipelineConfig, run_stereo_sequence, write_tracks
from rigpose.simulate import (
    SimConfig,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
)

DESK_SIM = SimConfig(
    n_points=2000, n_frames=100, noise_sigma=0.5, n_runs=50, seed=2025
)
DESK_PCFG = PipelineConfig(redetect_threshold=20)
DESK_MIN_VISIBLE = 20


def report_line(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")


@pytest.fixture(scope="module")
def desk_report():
    started = time.monotonic()
    report = harness.monte_carlo(
        DESK_SIM, pipeline_cfg=DESK_PCFG, workers=2, min_visible=DESK_MIN_VISIBLE
    )
    report.metadata["fixture_wall_s"] = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# Criterion 1: Table 1 ordering at desk scale
# ---------------------------------------------------------------------------

def test_criterion_1a_four_cameras_beat_two(desk_report):
    rows = desk_report.rows
    ok = bool(np.all(rows["4cameras"] < rows["2cameras"]))
    report_line("1a err(4cameras) < err(2cameras) on all 6", ok,
                f"4cam={np.array2string(rows['4cameras'], precision=4)} "
                f"2cam={np.array2string(rows['2cameras'], precision=4)}")
    assert ok


def test_criterion_1b_two_cameras_beat_cam1(desk_report):
    rows = desk_report.rows
    wins = int(np.sum(rows["2cameras"] < rows["cam1"]))
    ok = wins >= 5
    report_line("1b err(2cameras) < err(cam1) on >= 5 of 6", ok, f"wins={wins}/6")
    assert ok


def test_criterion_1c_parallel_cameras_beat_perpendicular(desk_report):
    rows = desk_report.rows
    c13 = np.maximum(rows["cam1"], rows["cam3"])
    c24 = np.minimum(rows["cam2"], rows["cam4"])
    per_param = c13 < c24
    ok = bool(np.all(per_param))
    report_line(
        "1c max(cam1,cam3) < min(cam2,cam4) on all 6", ok,
        f"per-param={per_param.tolist()} "
        f"max13={np.array2string(c13, precision=4)} min24={np.array2string(c24, precision=4)}",
    )
    assert ok


def test_criterion_1d_rc_beats_perpendicular(desk_report):
    rows = desk_report.rows
    c24 = np.minimum(rows["cam2"], rows["cam4"])
    per_param = rows["RC"] < c24
    ok = bool(np.all(per_param))
    report_line(
        "1d err(RC) < min(cam2,cam4) on all 6", ok,
        f"per-param={per_param.tolist()} RC={np.array2string(rows['RC'], precision=4)}",
    )
    assert ok


def test_criterion_1_runtime(desk_report):
    wall = desk_report.metadata["fixture_wall_s"]
    ok = wall <= 600.0
    report_line("1 runtime <= 10 min", ok, f"wall={wall:.1f}s "
                f"valid_runs={desk_report.metadata['valid_runs']}/50")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: 4-camera order of magnitude
# ---------------------------------------------------------------------------

def test_criterion_2_four_camera_magnitudes(desk_report):
    row = desk_report.rows["4cameras"]
    ok = bool(np.all(row[:3] <= 0.01) and np.all(row[3:] <= 0.01))
    report_line("2 err(4cameras) <= 0.01 m / 0.01 rad", ok,
                f"row={np.array2string(row, precision=5)}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: Jacobian oracle
# ---------------------------------------------------------------------------

def test_criterion_3_jacobian_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(33)
    rig = default_nonoverlap_rig()
    h_step = 1e-6
    worst = 0.0
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    for _ in range(100):
        k = int(rng.integers(0, 4))
        cam = rig.cameras[k]
        pose_vec = np.concatenate(
            [rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.05, 0.05, 3),
             rng.uniform(-0.01, 0.01, 6)]
        )
        local = np.stack(
            [rng.uniform(-0.2, 0.2, 5), rng.uniform(-0.15, 0.15, 5), rng.uniform(0.7, 1.0, 5)],
            axis=-1,
        )
        points = local @ cam.R.T + cam.D
        seg = np.full(len(points), k)
        _, jac, _ = pose_measurement_rows(pose_vec[None], cams, seg, points)
        for i in range(6):
            plus, minus = pose_vec.copy(), pose_vec.copy()
            plus[i] += h_step
            minus[i] -= h_step
            up, _, _ = pose_measurement_rows(plus[None], cams, seg, points)
            um, _, _ = pose_measurement_rows(minus[None], cams, seg, points)
            numeric = (up - um) / (2 * h_step)
            denom = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, (np.abs(numeric - jac[:, :, i]) / denom).max())
    wall = time.monotonic() - started
    ok = worst < 1e-5 and wall < 5.0
    report_line("3 analytic Jacobian vs central differences", ok,
                f"worst_rel={worst:.2e} wall={wall:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: noiseless exactness suite
# ---------------------------------------------------------------------------

def test_criterion_4_noiseless_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(44)

    # (a) project -> triangulate round trip < 1e-9 m
    rig = default_overlap_rig()
    pose = rng.uniform(-0.02, 0.02, 6)
    points = np.array(
        [[rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.7, 1.0)]
         for _ in range(100)]
    )
    cam_a, cam_b = rig.cameras[0], rig.cameras[1]
    uv_a = pixels(to_camera(pose, cam_a, points), cam_a.intrinsics)
    uv_b = pixels(to_camera(pose, cam_b, points), cam_b.intrinsics)
    rec, ok = stereo.triangulate_batch(pose[None], CameraStack.of(rig.cameras, [0, 0, 0, 0]),
                                       np.zeros(100, dtype=int), np.ones(100, dtype=int),
                                       uv_a, uv_b)
    worst_tri = float(np.linalg.norm(rec - points, axis=1).max()) if ok.all() else np.inf

    # (b) ground-truth scale system recovers (1,1,1,1) within 1e-9
    cams_n = CameraStack.of(default_nonoverlap_rig().cameras, np.zeros(4, dtype=int))
    worst_scale = 0.0
    for _ in range(100):
        body = np.concatenate([rng.uniform(-0.05, 0.05, 3), rng.uniform(0.01, 0.1, 3)])
        local = fusion.true_local_pose(body, cams_n)
        a, b = fusion.build_scale_system(body[:3], rot_from_angles(body[3:]), local[1:, :3], cams_n)
        scales, _, _ = fusion.solve_scales(a, b, body[:3])
        worst_scale = max(worst_scale, float(np.abs(scales - 1.0).max()))

    # (c) conjugation preserves the rotation angle within 1e-10
    worst_conj = 0.0
    for _ in range(100):
        basis = rot_from_angles(rng.uniform(-0.5, 0.5, 3))
        local = rot_from_angles(rng.uniform(-0.3, 0.3, 3))
        eq = change_basis(basis, local)
        angle_local = np.arccos(np.clip((np.trace(local) - 1) / 2, -1, 1))
        angle_eq = np.arccos(np.clip((np.trace(eq) - 1) / 2, -1, 1))
        worst_conj = max(worst_conj, abs(angle_eq - angle_local))

    # (d) lowe_pose recovers a 0.01-perturbed pose within 1e-8 on 50 matches
    intr, cams = rig.cameras[0].intrinsics, CameraStack.of([cam_a], [0])
    worst_lowe = 0.0
    for _ in range(10):
        truth = rng.uniform(-0.02, 0.02, 6)
        pts = np.stack(
            [rng.uniform(-0.25, 0.25, 50), rng.uniform(-0.18, 0.18, 50),
             rng.uniform(0.7, 1.0, 50)],
            axis=-1,
        )
        uv = pixels(to_camera(truth, cam_a, pts), intr)
        init = truth + rng.uniform(-0.01, 0.01, 6)
        est = pipeline.lowe_pose(pts, uv, cams, np.zeros(50, dtype=int), init)
        worst_lowe = max(worst_lowe, float(np.abs(est - truth).max()))

    wall = time.monotonic() - started
    ok = (
        worst_tri < 1e-9 and worst_scale < 1e-9
        and worst_conj < 1e-10 and worst_lowe < 1e-8 and wall < 5.0
    )
    report_line(
        "4 noiseless exactness suite", ok,
        f"triangulate={worst_tri:.2e} scales={worst_scale:.2e} "
        f"conjugation={worst_conj:.2e} lowe={worst_lowe:.2e} wall={wall:.2f}s",
    )
    assert worst_tri < 1e-9
    assert worst_scale < 1e-9
    assert worst_conj < 1e-10
    assert worst_lowe < 1e-8
    assert wall < 5.0


# ---------------------------------------------------------------------------
# Criterion 5: degenerate handling
# ---------------------------------------------------------------------------

def test_criterion_5_degenerate_handling():
    # pure-rotation frame: IllConditioned and the scale fallback
    cams_n = CameraStack.of(default_nonoverlap_rig().cameras, np.zeros(4, dtype=int))
    pure_rot = np.array([0.0, 0.0, 0.0, 0.02, -0.01, 0.03])
    local = fusion.true_local_pose(pure_rot, cams_n)
    a, b = fusion.build_scale_system(np.zeros(3), rot_from_angles(pure_rot[3:]), local[1:, :3],
                                     cams_n)
    with pytest.raises(IllConditioned):
        fusion.solve_scales(a, b, np.zeros(3))
    angles = fusion.fuse_rotation_median(fusion.local_to_body_pose(local, cams_n)[:, 3:])
    a, b = fusion.build_scale_system(local[0, :3], rot_from_angles(angles), local[1:, :3], cams_n)
    prev = np.array([1.3, 0.9, 1.1, 1.0])
    result = fusion.fuse_pose(a, b, local[0, :3], angles, prev)
    fallback_ok = result.ill_conditioned and np.array_equal(result.scales, prev)

    # 49-feature frame triggers re-triangulation at the 50-feature threshold
    rig = default_overlap_rig()
    sim = SimConfig(n_points=6000, n_frames=50, noise_sigma=0.0, n_runs=1, seed=55)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, _, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = scripted_trajectory(50, np.zeros(6))
    frames = render_sequence(scene, traj, rig.cameras, 0.0, noise_ss)
    matched = np.intersect1d(frames[0][0][0], frames[0][1][0])

    def filtered_stream(n_keep):
        keep = set(int(f) for f in matched[:n_keep])
        out = []
        for j, frame in enumerate(frames):
            if j < 30:
                out.append(frame)
                continue
            per_cam = []
            for ids, uv in frame:
                mask = np.fromiter((int(f) in keep for f in ids), bool, len(ids))
                per_cam.append((ids[mask], uv[mask]))
            out.append(per_cam)
        return stream_of(out)

    pcfg = PipelineConfig(redetect_threshold=50)
    series49 = run_stereo_sequence(filtered_stream(49), rig, pcfg=pcfg)
    events49 = [j for j, d in enumerate(series49.diagnostics) if d.get("retriangulated")]
    series50 = run_stereo_sequence(filtered_stream(50), rig, pcfg=pcfg)
    events50 = [j for j, d in enumerate(series50.diagnostics) if d.get("retriangulated")]
    threshold_ok = (30 in events49) and (30 not in events50)

    ok = fallback_ok and threshold_ok
    report_line("5 degenerate handling", ok,
                f"scale_fallback={fallback_ok} retriangulation_at_threshold={threshold_ok}")
    assert fallback_ok
    assert threshold_ok


# ---------------------------------------------------------------------------
# Criterion 6: determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    sim = SimConfig(n_points=1500, n_frames=25, noise_sigma=0.5, n_runs=4, seed=66)
    pcfg = PipelineConfig(redetect_threshold=15)
    texts = []
    for workers in (1, 1, 3):
        report = harness.monte_carlo(
            sim, pipeline_cfg=pcfg, workers=workers, min_visible=15
        )
        path = tmp_path / f"report_{len(texts)}.csv"
        report.write_csv(path)
        texts.append(path.read_bytes())
    ok = texts[0] == texts[1] == texts[2]
    report_line("6 determinism (same seed, 1 vs N workers)", ok,
                f"bytes={len(texts[0])}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: noiseless filter sanity on a scripted trajectory
# ---------------------------------------------------------------------------

def test_criterion_7_noiseless_scripted_tracking():
    rig = default_overlap_rig()
    sim = SimConfig(n_points=4000, n_frames=100, noise_sigma=0.0, n_runs=1, seed=77)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, _, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = scripted_trajectory(100, [0.002, -0.001, 0.0015, 0.0008, -0.0005, 0.0006])
    frames = render_sequence(scene, traj, rig.cameras, 0.0, noise_ss)
    series = run_stereo_sequence(
        frames, rig, pcfg=PipelineConfig(redetect_threshold=20),
        truth=traj,
    )
    err = np.abs(series.x - traj.x)
    err_d, err_a = float(err[:, :3].max()), float(err[:, 3:].max())
    ok = err_d < 1e-6 and err_a < 1e-6
    report_line("7 noiseless scripted tracking < 1e-6", ok,
                f"max_err_d={err_d:.2e} max_err_angles={err_a:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Tracks-file path: identical to the in-process pipeline
# ---------------------------------------------------------------------------

def test_tracks_path_identical_to_in_process(tmp_path, capsys):
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, default_overlap_rig())
    rig = read_rig(rig_path)

    sim = SimConfig(n_points=2000, n_frames=30, noise_sigma=0.5, n_runs=1, seed=88)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, rig.cameras, sim.noise_sigma, noise_ss)

    tracks_path = tmp_path / "tracks.csv"
    write_tracks(tracks_path, frames)
    poses_path = tmp_path / "poses.csv"
    code = cli.main([
        "run-tracks", "--layout", "stereo", "--rig", str(rig_path),
        "--tracks", str(tracks_path), "--out", str(poses_path),
    ])
    capsys.readouterr()
    assert code == 0

    direct = run_stereo_sequence(frames, rig)
    worst = 0.0
    lines = poses_path.read_text().splitlines()[1:]
    assert len(lines) == 30
    for j, line in enumerate(lines):
        fields = line.split(",")
        vec = np.array([float(x) for x in fields[1:7]])
        worst = max(worst, float(np.abs(vec - direct.x[j]).max()))
    ok = worst < 1e-12
    report_line("8 run-tracks equals in-process pipeline", ok, f"max_diff={worst:.2e}")
    assert ok
