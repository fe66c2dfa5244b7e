"""Noiseless oracle checks runnable from the command line.

Each check exercises one exactness contract of the estimation stack with
zero measurement noise, where the correct answer is known analytically or
by construction. `run_selftest` prints one line per check with its
residual and returns True only if every residual is inside its bound.
"""

from __future__ import annotations

import numpy as np

from . import fusion, pipeline, simulate, stereo
from .geometry import (
    CameraStack,
    Pose,
    angles_from_rot,
    default_nonoverlap_rig,
    default_overlap_rig,
    equivalent_rotation,
    project,
    rot_from_angles,
    world_to_camera,
    world_to_camera_k,
)


def check_rotation_roundtrip(rng) -> float:
    worst = 0.0
    for _ in range(50):
        angles = rng.uniform(-0.4, 0.4, 3)
        worst = max(worst, np.abs(angles_from_rot(rot_from_angles(angles)) - angles).max())
    return worst


def check_conjugation_angle(rng) -> float:
    worst = 0.0
    for _ in range(50):
        rot_k = rot_from_angles(rng.uniform(-0.5, 0.5, 3))
        local = rot_from_angles(rng.uniform(-0.3, 0.3, 3))
        eq = equivalent_rotation(rot_k, local)
        # similarity transforms preserve the rotation angle: same trace
        worst = max(worst, abs(np.trace(eq) - np.trace(local)))
    return worst


def check_triangulation_roundtrip(rng) -> float:
    rig = default_overlap_rig()
    pair = stereo.make_stereo_pair(rig, 0, 1)
    pose = Pose(rng.uniform(-0.01, 0.01, 3), rng.uniform(-0.01, 0.01, 3))
    points = np.array(
        [[rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.7, 1.0)]
         for _ in range(50)]
    )
    uv_a = project(world_to_camera_k(pose, rig, 0, points), rig.camera(0).intrinsics)
    uv_b = project(world_to_camera_k(pose, rig, 1, points), rig.camera(1).intrinsics)
    rec, ok = stereo.triangulate_batch(rig, pose, pair, uv_a, uv_b)
    if not ok.all():
        return np.inf
    return float(np.linalg.norm(rec - points, axis=1).max())


def check_scale_recovery(rng) -> float:
    cams = CameraStack.of(default_nonoverlap_rig().cameras, np.zeros(4, dtype=int))
    worst = 0.0
    for _ in range(50):
        pose = Pose(rng.uniform(-0.02, 0.02, 3), rng.uniform(0.005, 0.02, 3))
        local = fusion.true_local_pose(pose, cams)
        a, b = fusion.build_scale_system(pose.d, pose.rotation(), local[1:, :3], cams)
        scales, _, _ = fusion.solve_scales(a, b, pose.d)
        worst = max(worst, np.abs(scales - 1.0).max())
    return worst


def check_lowe_recovery(rng) -> float:
    intr = default_overlap_rig().camera(0).intrinsics
    worst = 0.0
    for _ in range(10):
        truth = Pose(rng.uniform(-0.02, 0.02, 3), rng.uniform(-0.02, 0.02, 3))
        points = np.stack(
            [
                rng.uniform(-0.25, 0.25, 50),
                rng.uniform(-0.18, 0.18, 50),
                rng.uniform(0.7, 1.0, 50),
            ],
            axis=-1,
        )
        pixels = project(world_to_camera(truth, points), intr)
        init = Pose(truth.d + rng.uniform(-0.01, 0.01, 3), truth.angles + rng.uniform(-0.01, 0.01, 3))
        est = pipeline.lowe_pose(points, pixels, intr, init)
        worst = max(worst, np.abs(est.as_vector() - truth.as_vector()).max())
    return worst


def check_scripted_tracking(rng=None) -> float:
    rig = default_overlap_rig()
    cfg = simulate.SimConfig(n_points=4000, n_frames=100, noise_sigma=0.0, n_runs=1, seed=5)
    rng = np.random.default_rng(5)
    scene = simulate.gen_scene(cfg, rng)
    traj = simulate.scripted_trajectory(100, [0.002, -0.001, 0.0015, 0.0008, -0.0005, 0.0006])
    frames = simulate.render_sequence(scene, traj, rig.cameras, 0.0)
    series = pipeline.run_stereo_sequence(
        frames, rig, truth=traj, ideal_init=True,
        pcfg=pipeline.PipelineConfig(redetect_threshold=20),
    )
    err_d = np.abs(series.d - traj.d).max()
    err_a = np.abs(series.angles - traj.angles).max()
    return max(err_d, err_a)


CHECKS = [
    ("rotation-roundtrip", check_rotation_roundtrip, 1e-10),
    ("conjugation-angle", check_conjugation_angle, 1e-10),
    ("triangulation-roundtrip", check_triangulation_roundtrip, 1e-9),
    ("scale-recovery", check_scale_recovery, 1e-9),
    ("lowe-recovery", check_lowe_recovery, 1e-8),
    ("scripted-tracking", check_scripted_tracking, 1e-6),
]


def run_selftest(out=print) -> bool:
    rng = np.random.default_rng(424242)
    all_ok = True
    for name, fn, bound in CHECKS:
        residual = fn(rng)
        ok = residual < bound
        all_ok &= ok
        out(f"{'ok  ' if ok else 'FAIL'} {name:26s} residual={residual:.3e} bound={bound:.0e}")
    return all_ok
