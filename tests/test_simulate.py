import numpy as np
import pytest

from reference import random_walk, scripted_trajectory
from rigpose.errors import InputError
from rigpose.geometry import (
    Z_MIN,
    Camera,
    CameraStack,
    back_project,
    Intrinsics,
    default_nonoverlap_rig,
    default_overlap_rig,
    rot_from_angles,
    view_points,
)
from rigpose.simulate import (
    SimConfig,
    Trajectory,
    build_union,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
    slice_stream,
    visible_counts,
)


def small_cfg(**kw):
    defaults = dict(n_points=500, n_frames=10, n_runs=1, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

def test_scene_points_inside_shell():
    cfg = SimConfig(n_points=5000, seed=1)
    pts = gen_scene(cfg, np.random.default_rng(1))
    radii = np.linalg.norm(pts, axis=1)
    assert radii.min() >= cfg.shell_inner
    assert radii.max() <= cfg.shell_outer


def test_scene_empty():
    pts = gen_scene(small_cfg(n_points=0), np.random.default_rng(0))
    assert pts.shape == (0, 3)


def test_scene_direction_uniformity():
    cfg = SimConfig(n_points=10_000, seed=2)
    pts = gen_scene(cfg, np.random.default_rng(2))
    dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.linalg.norm(dirs.mean(axis=0)) < 0.05


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(shell_inner=1.5, shell_outer=1.0)
    with pytest.raises(InputError):
        SimConfig(trans_min=0.02, trans_max=0.01)
    with pytest.raises(InputError):
        SimConfig(noise_sigma=-1.0)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def test_trajectory_starts_at_identity():
    traj = gen_trajectory(small_cfg(n_frames=20), np.random.default_rng(3))
    assert np.array_equal(traj.x[0, :3], np.zeros(3))
    assert np.array_equal(rot_from_angles(traj.x[0, 3:]), np.eye(3))


def test_trajectory_delta_magnitudes_within_bands():
    cfg = SimConfig(n_points=10, n_frames=100, seed=4)
    deltas, d, _ = random_walk(cfg, np.random.default_rng(4))
    np.testing.assert_array_equal(gen_trajectory(cfg, np.random.default_rng(4)).x[:, :3], d)
    t_mags = np.abs(deltas[:, :3])
    r_mags = np.abs(deltas[:, 3:])
    assert np.all((t_mags >= cfg.trans_min) & (t_mags <= cfg.trans_max))
    assert np.all((r_mags >= cfg.rot_min) & (r_mags <= cfg.rot_max))


def test_trajectory_composition_oracle():
    # Redraw the increments, re-chain them independently and compare.
    traj = gen_trajectory(small_cfg(n_frames=50), np.random.default_rng(5))
    _, d, rotations = random_walk(small_cfg(n_frames=50), np.random.default_rng(5))
    for j in range(1, 50):
        np.testing.assert_allclose(traj.x[j, :3], d[j], atol=1e-12)
        np.testing.assert_allclose(rot_from_angles(traj.x[j, 3:]), rotations[j], atol=1e-12)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

STILL = scripted_trajectory(1, np.zeros(6))  # one frame at the identity pose


def test_render_noiseless_matches_exact_projection():
    rig = default_overlap_rig()
    scene = gen_scene(small_cfg(n_points=300), np.random.default_rng(6))
    (ids, uv), = render_sequence(scene, STILL, [rig.cameras[0]], 0.0)[0]
    pose, seg = np.zeros(6), np.zeros(len(ids), dtype=int)
    _, exact, *_ = view_points(scene[ids], rot_from_angles(pose[3:])[None], pose[None, :3],
                               CameraStack.of([rig.cameras[0]], [0]), seg)
    np.testing.assert_array_equal(uv, exact)


def test_render_excludes_behind_camera_points():
    rig = default_overlap_rig()
    scene = np.array([[0.0, 0.0, 0.8], [0.0, 0.0, -0.8]])
    (ids, _), = render_sequence(scene, STILL, [rig.cameras[0]], 0.0)[0]
    assert list(ids) == [0]


def test_render_noise_statistics():
    # Ten frames at one pose: ten independent noise draws over the same ids.
    rig = default_overlap_rig()
    scene = gen_scene(SimConfig(n_points=20_000, seed=7), np.random.default_rng(7))
    still = scripted_trajectory(10, np.zeros(6))
    noisy = render_sequence(scene, still, [rig.cameras[0]], 0.5, np.random.SeedSequence(8))
    (exact_ids, exact), = render_sequence(scene, STILL, [rig.cameras[0]], 0.0)[0]
    assert all(np.array_equal(ids, exact_ids) for (ids, _), in noisy)
    residual = np.concatenate([(uv - exact).ravel() for (_, uv), in noisy])
    assert len(residual) >= 10_000 * 0.02  # enough samples to estimate sigma
    assert 0.48 <= residual.std() <= 0.52


def reference_render(scene, traj, cameras, noise_sigma, noise_seed):
    """Every point through view_points for every camera and frame, then the
    visibility test and the noise draws in the renderer's stream order: one
    generator, one draw per frame over its cameras' rows in camera order."""
    rng = np.random.default_rng(noise_seed)
    seg = np.zeros(len(scene), dtype=int)
    frames = []
    for j in range(len(traj)):
        frame = []
        for cam in cameras:
            _, uv, front, *_ = view_points(scene, rot_from_angles(traj.x[j, 3:])[None],
                                           traj.x[j, :3][None], CameraStack.of([cam], [0]), seg)
            intr, u, v = cam.intrinsics, uv[:, 0], uv[:, 1]
            visible = (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
            frame.append((np.flatnonzero(front)[visible], uv[visible]))
        if noise_sigma > 0:
            noise = rng.normal(0.0, noise_sigma, (sum(len(ids) for ids, _ in frame), 2))
            at = np.cumsum([0] + [len(ids) for ids, _ in frame])
            frame = [(ids, uv + noise[lo:hi]) for (ids, uv), lo, hi in zip(frame, at, at[1:])]
        frames.append(frame)
    return frames


def test_render_sequence_matches_full_projection():
    # The culled renderer keeps exactly the ids and pixel bits of projecting
    # every point. With fx = fy = 1024 the first rows land exactly on the
    # borders of camera 0 at the identity pose.
    intr = Intrinsics(fx=1024.0, fy=1024.0)
    border = np.array([
        [-0.3125, 0.0, 1.0],               # u = 0: visible
        [0.0, -0.234375, 1.0],             # v = 0: visible
        [0.3125 - 2.0**-40, 0.0, 1.0],     # u just below width: visible
        [0.3125, 0.0, 1.0],                # u = width: outside
        [0.0, 0.0, 2e-6],                  # just deeper than Z_MIN: visible
        [0.0, 0.0, Z_MIN],                 # depth Z_MIN: outside
        [0.0, 0.0, -0.5],                  # behind the camera
    ])
    cameras = [
        Camera(np.zeros(3), np.eye(3), intr),
        Camera([0.1, 0.0, 0.0], np.eye(3)),
        Camera([0.0, 0.0, -0.1], rot_from_angles([0.0, np.pi, 0.0])),
        # 7 m out, facing the origin
        Camera([7.0, -1.0, 2.0], rot_from_angles([0.0, -np.pi / 2, 0.0])),
    ]
    rng = np.random.default_rng(12)
    # Points within 1e-6 px of each image border, 5 cm to 50 m deep.
    near = rng.uniform(0.0, 1.0, (400, 2)) * [640.0, 480.0]
    near[np.arange(400), np.repeat([0, 0, 1, 1], 100)] = (
        np.repeat([0.0, 640.0, 0.0, 480.0], 100) + rng.uniform(-1e-6, 1e-6, 400))
    with np.errstate(all="raise"):
        (ids, uv), *_ = render_sequence(border, STILL, cameras, 0.0)[0]
        np.testing.assert_array_equal(ids, [0, 1, 2, 4])
        assert uv[0, 0] == 0.0 and uv[1, 1] == 0.0 and uv[2, 0] == 640.0 - 2.0**-30
        center, ray = back_project(near, np.eye(3)[None], np.zeros((1, 3)),
                                   CameraStack.of(cameras[:1], [0]), np.zeros(400, dtype=int))
        border = np.vstack([border, center + rng.uniform(0.05, 50.0, (400, 1)) * ray])
        for inner, outer in [(0.05, 0.2), (5.0, 50.0)]:
            cfg = SimConfig(n_points=3000, shell_inner=inner, shell_outer=outer, n_frames=8,
                            rot_max=0.2, trans_max=0.1 * outer)
            scene = np.vstack([border, gen_scene(cfg, rng)])
            walk = gen_trajectory(cfg, rng)
            moved = Trajectory(walk.x + [0.0, 0.0, -7.0, 0.0, 0.0, 0.0])
            for traj in (scripted_trajectory(8, np.zeros(6)), walk, moved):
                for sigma in (0.0, 0.5):
                    got = render_sequence(scene, traj, cameras, sigma, np.random.SeedSequence(3))
                    want = reference_render(scene, traj, cameras, sigma, np.random.SeedSequence(3))
                    assert sum(len(ids) for frame in want for ids, _ in frame) > 0
                    for frame_got, frame_want in zip(got, want, strict=True):
                        for (ids_g, uv_g), (ids_w, uv_w) in zip(frame_got, frame_want, strict=True):
                            np.testing.assert_array_equal(ids_g, ids_w)
                            assert uv_g.shape == uv_w.shape and uv_g.tobytes() == uv_w.tobytes()


def test_render_sequence_builds_one_generator(monkeypatch):
    # One noise stream per call, not one per (camera, frame).
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or default_rng(*a))
    rig = default_nonoverlap_rig()
    cfg = small_cfg(n_points=2000, n_frames=6, noise_sigma=0.5)
    scene = gen_scene(cfg, default_rng(4))
    frames = render_sequence(scene, gen_trajectory(cfg, default_rng(5)), rig.cameras,
                             cfg.noise_sigma, np.random.SeedSequence(6))
    assert len(frames) == 6 and all(len(frame) == 4 for frame in frames)
    assert sum(len(ids) for frame in frames for ids, _ in frame) > 0
    assert len(calls) == 1


def test_render_sequence_in_blocks_keeps_the_full_projection_bits(monkeypatch):
    # With a small row budget the frames fall into several blocks, each one
    # exact pass: a block ends before the frame that would take it past the
    # budget, and only a frame alone may exceed it. At frame 3 the rig stands
    # 50 m out along x, where no camera faces the scene, so that frame has no
    # candidates; the last block is shorter than the others. Every pass uses
    # the call's one camera stack, segment j * C + k for camera k at frame j.
    # A frame without candidates adds no row to a pass, so each block is read
    # from its pass as the frames from its first to its last frame with
    # candidates. A noisy render draws its noise in one call.
    from rigpose import simulate

    cameras = default_overlap_rig().cameras
    cfg = small_cfg(n_points=1500, n_frames=14)
    scene = gen_scene(cfg, np.random.default_rng(30))
    traj = gen_trajectory(cfg, np.random.default_rng(31))
    traj.x[3, 0] = 50.0
    budget = 300
    monkeypatch.setattr(simulate, "BLOCK_ROWS", budget)
    passes, stacks, draws, exact = [], [], [], simulate.view_points
    default_rng = np.random.default_rng

    def view_points_spy(points, rot, d, cams, seg):
        # the pass's candidates per frame, over the call's whole frame axis
        passes.append(np.bincount(seg // len(cameras), minlength=cfg.n_frames))
        stacks.append(cams)
        return exact(points, rot, d, cams, seg)

    class Drawn:
        def __init__(self, rng):
            self.rng = rng

        def normal(self, *args):
            draws.append(args)
            return self.rng.normal(*args)

    monkeypatch.setattr(simulate, "view_points", view_points_spy)
    for sigma in (0.0, 0.5):
        want = reference_render(scene, traj, cameras, sigma, np.random.SeedSequence(3))
        passes.clear()
        stacks.clear()
        draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", lambda *a: Drawn(default_rng(*a)))
            got = render_sequence(scene, traj, cameras, sigma, np.random.SeedSequence(3))
        assert len(draws) == (sigma > 0)
        for frame_got, frame_want in zip(got, want, strict=True):
            for (ids_g, uv_g), (ids_w, uv_w) in zip(frame_got, frame_want, strict=True):
                np.testing.assert_array_equal(ids_g, ids_w)
                assert uv_g.shape == uv_w.shape and uv_g.tobytes() == uv_w.tobytes()
        spans = [np.flatnonzero(counts)[[0, -1]] for counts in passes]
        blocks = [counts[lo:hi + 1] for counts, (lo, hi) in zip(passes, spans)]
        per_frame = np.sum(passes, axis=0)
        # the passes take the frames in order, each frame in one pass
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        assert len(blocks) >= 4 and len(per_frame) == cfg.n_frames
        assert per_frame[3] == 0 and per_frame.sum() > 0
        assert len(blocks[-1]) < max(map(len, blocks))
        assert all(cams is stacks[0] for cams in stacks)
        assert len(stacks[0].body) == cfg.n_frames * len(cameras)
        for block, after in zip(blocks, blocks[1:] + [None]):
            assert block.sum() <= budget or len(block) == 1
            if after is not None:
                assert block.sum() + after[0] > budget


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_render_sequence_at_the_default_block_budget_keeps_the_full_projection_bits(monkeypatch,
                                                                                    sigma):
    # At paper density and the default BLOCK_ROWS the frames fall into at
    # least three exact passes, each with frames whose segments count from
    # frame 0 of the call's one camera stack.
    from rigpose import simulate

    cameras = default_overlap_rig().cameras
    cfg = small_cfg(n_points=10_000, n_frames=16)
    scene = gen_scene(cfg, np.random.default_rng(40))
    traj = gen_trajectory(cfg, np.random.default_rng(41))
    passes, exact = [], simulate.view_points
    monkeypatch.setattr(simulate, "view_points",
                        lambda *args: passes.append(len(args[-1])) or exact(*args))
    got = render_sequence(scene, traj, cameras, sigma, np.random.SeedSequence(5))
    assert len(passes) >= 3 and max(passes) <= simulate.BLOCK_ROWS
    want = reference_render(scene, traj, cameras, sigma, np.random.SeedSequence(5))
    for frame_got, frame_want in zip(got, want, strict=True):
        for (ids_g, uv_g), (ids_w, uv_w) in zip(frame_got, frame_want, strict=True):
            np.testing.assert_array_equal(ids_g, ids_w)
            assert uv_g.shape == uv_w.shape and uv_g.tobytes() == uv_w.tobytes()


def test_sequence_determinism_same_seed():
    rig = default_nonoverlap_rig()
    cfg = small_cfg(n_points=2000, n_frames=5, noise_sigma=0.5)

    def run():
        seeds = run_seed_sequences(cfg.seed, 1)
        scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
        scene = gen_scene(cfg, scene_rng)
        traj = gen_trajectory(cfg, traj_rng)
        return scene, render_sequence(scene, traj, rig.cameras, cfg.noise_sigma, noise_ss)

    scene_a, frames_a = run()
    scene_b, frames_b = run()
    np.testing.assert_array_equal(scene_a, scene_b)
    for fa, fb in zip(frames_a, frames_b):
        for (ids_a, uv_a), (ids_b, uv_b) in zip(fa, fb):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(uv_a, uv_b)


def test_visibility_with_default_configuration():
    # Full-scale scene: every camera of both rigs sees >= 100 points at
    # frame 0.
    cfg = SimConfig(seed=9)  # defaults: 10,000 points
    scene = gen_scene(cfg, np.random.default_rng(9))
    union, _ = build_union([default_nonoverlap_rig(), default_overlap_rig()])
    traj = scripted_trajectory(1, np.zeros(6))
    frames = render_sequence(scene, traj, union, 0.0)
    counts = visible_counts(frames, 0)
    assert min(counts) >= 100


def test_build_union_shares_common_cameras():
    union, (map_non, map_over) = build_union(
        [default_nonoverlap_rig(), default_overlap_rig()]
    )
    # cam 1 and the back camera are shared between the rigs
    assert map_non[0] == map_over[0]
    assert map_non[2] == map_over[2]
    assert len(union) == 6


def test_slice_stream_renumbers_cameras():
    union, (map_non, map_over) = build_union(
        [default_nonoverlap_rig(), default_overlap_rig()]
    )
    cfg = small_cfg(n_points=1000, n_frames=3)
    scene = gen_scene(cfg, np.random.default_rng(10))
    traj = gen_trajectory(cfg, np.random.default_rng(11))
    frames = render_sequence(scene, traj, union, 0.0)
    sliced = slice_stream(frames, map_over)
    for j in range(3):
        for local_k, union_k in enumerate(map_over):
            np.testing.assert_array_equal(sliced[j][local_k][0], frames[j][union_k][0])
