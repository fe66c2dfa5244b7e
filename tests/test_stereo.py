import numpy as np
import pytest

from reference import pixels, to_camera
from rigpose.geometry import (
    CameraStack,
    back_project,
    camera_placement,
    default_overlap_rig,
    rot_from_angles,
)
from rigpose.stereo import (
    epipolar_distances,
    fundamental_from_calib,
    triangulate_batch,
)


def stack(rig):
    # every camera of the rig on one body
    return CameraStack.of(rig.cameras, np.zeros(len(rig), dtype=int))


class Pair:
    """Cameras a and b of a rig and their fundamental matrix F."""

    def __init__(self, rig, a, b):
        self.rig, self.cam_a, self.cam_b = rig, a, b
        self.F = fundamental_from_calib(stack(rig), a, b)

    def triangulate(self, pose, uv_a, uv_b):
        # triangulate_batch on matches of this pair, the body at the pose row
        n = len(uv_a)
        return triangulate_batch(np.asarray(pose, dtype=float)[None], stack(self.rig),
                                 np.full(n, self.cam_a), np.full(n, self.cam_b), uv_a, uv_b)


def project_pair(rig, pose, pair, point):
    cam_a, cam_b = rig.cameras[pair.cam_a], rig.cameras[pair.cam_b]
    uv_a = pixels(to_camera(pose, cam_a, point), cam_a.intrinsics)
    uv_b = pixels(to_camera(pose, cam_b, point), cam_b.intrinsics)
    return uv_a, uv_b


def epipolar_distance(fm, p_a, p_b) -> float:
    """Reference: one match's distance from p_b to the epipolar line of p_a."""
    line = fm @ np.array([p_a[0], p_a[1], 1.0])
    return float(abs(line[0] * p_b[0] + line[1] * p_b[1] + line[2]) / np.hypot(line[0], line[1]))


def distance(fm, p_a, p_b) -> float:
    return float(epipolar_distances(fm, [p_a], [p_b])[0])


def triangulate(rig, pose, pair, p_a, p_b):
    points, ok = pair.triangulate(pose, [p_a], [p_b])
    assert ok[0]
    return points[0]


def test_fundamental_epipolar_residual_noiseless():
    # Calibration consistency over 1000 random points visible to the pair.
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    rng = np.random.default_rng(0)
    pose = np.zeros(6)
    pts_a, pts_b = [], []
    for _ in range(1000):
        point = np.array(
            [rng.uniform(-0.25, 0.25), rng.uniform(-0.18, 0.18), rng.uniform(0.7, 1.0)]
        )
        uv_a, uv_b = project_pair(rig, pose, pair, point)
        pts_a.append(uv_a)
        pts_b.append(uv_b)
    dists = epipolar_distances(pair.F, np.array(pts_a), np.array(pts_b))
    assert np.median(dists) < 1e-9
    assert dists.max() < 1e-8


def test_fundamental_rank_two_and_unit_norm():
    rig = default_overlap_rig()
    for a, b in rig.stereo_pairs():
        fm = fundamental_from_calib(stack(rig), a, b)
        assert fm.shape == (3, 3)
        sv = np.linalg.svd(fm, compute_uv=False)
        assert sv[2] < 1e-10 * sv[0]
        assert np.linalg.norm(fm) == pytest.approx(1.0, abs=1e-12)


def test_epipolar_distance_exact_correspondence_is_zero():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, np.array([0.1, -0.05, 0.9]))
    assert distance(pair.F, uv_a, uv_b) < 1e-9


def test_epipolar_distance_perpendicular_displacement():
    # Displace p_b by exactly 2 px along the epipolar line's normal.
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, np.array([0.05, 0.02, 0.85]))
    line = pair.F @ np.array([uv_a[0], uv_a[1], 1.0])
    normal = np.array([line[0], line[1]]) / np.hypot(line[0], line[1])
    displaced = uv_b + 2.0 * normal
    assert distance(pair.F, uv_a, displaced) == pytest.approx(2.0, abs=1e-6)


def test_epipolar_distance_rejects_outlier_beyond_threshold():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, np.array([0.05, 0.02, 0.85]))
    line = pair.F @ np.array([uv_a[0], uv_a[1], 1.0])
    normal = np.array([line[0], line[1]]) / np.hypot(line[0], line[1])
    assert distance(pair.F, uv_a, uv_b + 5.0 * normal) > 2.0


def test_epipolar_distances_give_each_match_its_bits_alone():
    # The pipeline gates a whole stream's matches in one call: each match
    # must get the bits a call on that match alone gives it.
    rig = default_overlap_rig()
    rng = np.random.default_rng(5)
    for a, b in rig.stereo_pairs():
        fm = fundamental_from_calib(stack(rig), a, b)
        pts_a = rng.uniform([0.0, 0.0], [640.0, 480.0], (2000, 2))
        pts_b = pts_a + rng.normal(0.0, 3.0, (2000, 2))
        whole = epipolar_distances(fm, pts_a, pts_b)
        alone = [epipolar_distances(fm, pts_a[i:i + 1], pts_b[i:i + 1]) for i in range(2000)]
        assert whole.tobytes() == np.concatenate(alone).tobytes()


def test_triangulation_gives_each_match_its_bits_alone():
    # A replenish triangulates every pair's matches of a frame in one call:
    # each pixel's center and ray, and each match's point and flag, must
    # get the bits a call on that pixel or match alone gives it. Every
    # fifth match has its views swapped, so some flags are False.
    rig = default_overlap_rig()
    rng = np.random.default_rng(6)
    pose = rng.uniform(-0.05, 0.05, 6)
    seg_a, seg_b, uv_a, uv_b = [], [], [], []
    for a, b in rig.stereo_pairs():
        pair, sign = Pair(rig, a, b), 1.0 if a == 0 else -1.0
        for _ in range(300):
            point = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15),
                              sign * rng.uniform(0.7, 1.0)])
            p_a, p_b = project_pair(rig, pose, pair, point)
            p_a, p_b = p_a + rng.normal(0, 0.5, 2), p_b + rng.normal(0, 0.5, 2)
            swap = len(uv_a) % 5 == 0
            uv_a.append(p_b if swap else p_a)
            uv_b.append(p_a if swap else p_b)
            seg_a.append(a)
            seg_b.append(b)
    seg_a, seg_b, uv_a, uv_b = map(np.array, (seg_a, seg_b, uv_a, uv_b))
    cams, poses = stack(rig), pose[None]
    rot = rot_from_angles(poses[:, 3:])
    center, ray = back_project(uv_a, rot, poses[:, :3], cams, seg_a)
    points, ok = triangulate_batch(poses, cams, seg_a, seg_b, uv_a, uv_b)
    assert ok.any() and not ok.all()
    for i in range(len(uv_a)):
        one = slice(i, i + 1)
        alone = back_project(uv_a[one], rot, poses[:, :3], cams, seg_a[one])
        assert center[i].tobytes() == alone[0][0].tobytes()
        assert ray[i].tobytes() == alone[1][0].tobytes()
        point, flag = triangulate_batch(poses, cams, seg_a[one], seg_b[one], uv_a[one], uv_b[one])
        assert points[i].tobytes() == point[0].tobytes() and ok[i] == flag[0]


def test_epipolar_distance_degenerate_line():
    # A vanishing epipolar line measures nothing: its distance is inf, so
    # the match fails any gate, while a regular line next to it is kept.
    fm = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    dists = epipolar_distances(fm, [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]])
    assert dists[0] == np.inf
    assert dists[1] == pytest.approx(0.0)


def test_epipolar_distances_match_scalar():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    rng = np.random.default_rng(1)
    pts_a, pts_b = [], []
    for _ in range(20):
        point = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1), rng.uniform(0.7, 1.0)])
        uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
        pts_a.append(uv_a + rng.normal(0, 1, 2))
        pts_b.append(uv_b + rng.normal(0, 1, 2))
    batch = epipolar_distances(pair.F, np.array(pts_a), np.array(pts_b))
    singles = [epipolar_distance(pair.F, a, b) for a, b in zip(pts_a, pts_b)]
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_triangulate_recovers_point_noiseless():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    point = np.array([0.2, -0.1, 0.8])
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
    rec = triangulate(rig, np.zeros(6), pair, uv_a, uv_b)
    np.testing.assert_allclose(rec, point, atol=1e-9)


def test_triangulate_under_nontrivial_pose():
    rig = default_overlap_rig()
    pair = Pair(rig, 2, 3)
    pose = np.array([0.03, -0.02, 0.01, 0.04, -0.03, 0.02])
    point = np.array([-0.1, 0.05, -0.85])
    uv_a, uv_b = project_pair(rig, pose, pair, point)
    rec = triangulate(rig, pose, pair, uv_a, uv_b)
    np.testing.assert_allclose(rec, point, atol=1e-9)


def test_triangulate_symmetric_configuration():
    # Point on the perpendicular bisector plane of the baseline.
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    point = np.array([0.05, 0.0, 0.9])  # x = baseline/2
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
    rec = triangulate(rig, np.zeros(6), pair, uv_a, uv_b)
    d_a = np.linalg.norm(rec - rig.cameras[0].D)
    d_b = np.linalg.norm(rec - rig.cameras[1].D)
    assert abs(d_a - d_b) < 1e-9


def test_triangulate_parallel_rays_at_epipole():
    # Both pixels looking along the baseline direction: collinear rays.
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    intr = rig.cameras[0].intrinsics
    # baseline is +x; a pixel far along +x approximates the epipole direction
    epipole = [intr.cx + intr.fx * 1e9, intr.cy]
    _, ok = pair.triangulate(np.zeros(6), [epipole], [epipole])
    assert not ok[0]


def test_triangulate_behind_camera():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    # Swap the two views: the intersection lands behind both cameras.
    point = np.array([0.05, 0.0, 0.9])
    uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
    _, ok = pair.triangulate(np.zeros(6), [uv_b], [uv_a])
    assert not ok[0]


def test_triangulate_batch_matches_scalar():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    rng = np.random.default_rng(2)
    pts = np.stack(
        [rng.uniform(-0.2, 0.2, 30), rng.uniform(-0.15, 0.15, 30), rng.uniform(0.7, 1.0, 30)],
        axis=-1,
    )
    uvs = [project_pair(rig, np.zeros(6), pair, p) for p in pts]
    uv_a = np.array([u[0] for u in uvs])
    uv_b = np.array([u[1] for u in uvs])
    rec, ok = pair.triangulate(np.zeros(6), uv_a, uv_b)
    assert ok.all()
    np.testing.assert_allclose(rec, pts, atol=1e-9)


def test_reprojection_error_noiseless():
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(200):
        point = np.array(
            [rng.uniform(-0.25, 0.25), rng.uniform(-0.18, 0.18), rng.uniform(0.7, 1.0)]
        )
        uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
        rec = triangulate(rig, np.zeros(6), pair, uv_a, uv_b)
        re_a, re_b = project_pair(rig, np.zeros(6), pair, rec)
        errs.append(max(np.linalg.norm(re_a - uv_a), np.linalg.norm(re_b - uv_b)))
    assert np.median(errs) < 1e-7


def brute_force_ray_intersection(rig, pose, pair, uv_a, uv_b):
    """Independent oracle: solve the 3x2 least-squares ray system directly."""

    def ray(cam_idx, uv):
        cam = rig.cameras[cam_idx]
        center, orient = camera_placement(rot_from_angles(pose[3:]), pose[:3], cam)
        xn = (uv[0] - cam.intrinsics.cx) / cam.intrinsics.fx
        yn = (uv[1] - cam.intrinsics.cy) / cam.intrinsics.fy
        return center, orient @ np.array([xn, yn, 1.0])

    c_a, w_a = ray(pair.cam_a, uv_a)
    c_b, w_b = ray(pair.cam_b, uv_b)
    design = np.stack([w_a, -w_b], axis=-1)
    st, *_ = np.linalg.lstsq(design, c_b - c_a, rcond=None)
    return 0.5 * (c_a + st[0] * w_a + c_b + st[1] * w_b)


def test_noisy_depth_error_against_oracle():
    # 0.5 px noise, ~1 m range, 0.1 m baseline: depth error < 0.05 m for 95%.
    rig = default_overlap_rig()
    pair = Pair(rig, 0, 1)
    rng = np.random.default_rng(4)
    depth_errors = []
    for _ in range(400):
        point = np.array([rng.uniform(-0.2, 0.25), rng.uniform(-0.15, 0.15), rng.uniform(0.95, 1.05)])
        uv_a, uv_b = project_pair(rig, np.zeros(6), pair, point)
        uv_a = uv_a + rng.normal(0, 0.5, 2)
        uv_b = uv_b + rng.normal(0, 0.5, 2)
        rec = triangulate(rig, np.zeros(6), pair, uv_a, uv_b)
        oracle = brute_force_ray_intersection(rig, np.zeros(6), pair, uv_a, uv_b)
        np.testing.assert_allclose(rec, oracle, atol=1e-9)
        depth_errors.append(abs(rec[2] - point[2]))
    assert np.quantile(depth_errors, 0.95) < 0.05
