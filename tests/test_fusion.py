import numpy as np
import pytest

from rigpose.errors import IllConditioned
from rigpose.fusion import (
    FusionResult,
    build_scale_system,
    fuse_pose,
    fuse_rotation_median,
    local_to_body_pose,
    solve_scales,
    true_local_pose,
)
from rigpose.geometry import CameraStack, default_nonoverlap_rig, rot_from_angles

RIG = default_nonoverlap_rig()
CAMS = CameraStack.of(RIG.cameras, np.zeros(4, dtype=int))


def ground_truth_inputs(pose):
    """Local translations (3, 3) of the non-reference cameras."""
    return true_local_pose(pose, CAMS)[1:, :3]


def scale_system(pose, l):
    """The scale system at the body pose row, with local translations l."""
    return build_scale_system(pose[:3], rot_from_angles(pose[3:]), l, CAMS)


# ---------------------------------------------------------------------------
# rotation median
# ---------------------------------------------------------------------------

def test_median_of_identical_rotations():
    fused = fuse_rotation_median(np.array([(0.01, -0.02, 0.015)] * 4))
    np.testing.assert_allclose(fused, [0.01, -0.02, 0.015], atol=1e-12)


def test_median_rejects_single_outlier():
    honest = (0.01, 0.0, 0.0)
    outlier = (0.30, 0.0, 0.0)
    fused = fuse_rotation_median(np.array([honest, honest, honest, outlier]))
    assert fused[0] == pytest.approx(0.01, abs=1e-12)


def test_median_even_count_averages_middle_pair():
    fused = fuse_rotation_median(np.array([(a, a, a) for a in (0.00, 0.01, 0.02, 0.03)]))
    np.testing.assert_allclose(fused, [0.015, 0.015, 0.015], atol=1e-10)


def test_median_is_permutation_invariant():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-0.05, 0.05, (4, 3))
    base = fuse_rotation_median(angles)
    for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 0, 3, 1]):
        np.testing.assert_array_equal(fuse_rotation_median(angles[perm]), base)


def test_median_corruption_bounded_by_honest_spread():
    # Corrupting one camera moves the fused angles by at most the spread of
    # the three untouched cameras, per axis.
    rng = np.random.default_rng(1)
    for _ in range(50):
        base = rng.uniform(-0.05, 0.05, 3)
        jitters = np.array([base + rng.uniform(-1e-3, 1e-3, 3) for _ in range(4)])
        clean = fuse_rotation_median(jitters)
        corrupt_idx = int(rng.integers(0, 4))
        corrupted = jitters.copy()
        corrupted[corrupt_idx] += rng.choice([-0.5, 0.5], 3)
        dirty = fuse_rotation_median(corrupted)
        honest = np.array([jitters[i] for i in range(4) if i != corrupt_idx])
        spread = honest.max(axis=0) - honest.min(axis=0)
        assert np.all(np.abs(dirty - clean) <= spread + 1e-12)


def test_median_across_the_pi_seam():
    # gamma near +-pi on both sides of the seam: the four rotations differ
    # by at most 0.02 rad, so the fused gamma lies within 0.01 of pi
    # (modulo 2 pi), not near 0 where the plain median of the signed
    # angles falls.
    gammas = [np.pi - 0.01, np.pi - 0.005, -(np.pi - 0.01), -(np.pi - 0.008)]
    fused = fuse_rotation_median(np.array([(0.01, -0.02, g) for g in gammas]))
    assert abs(abs(fused[2]) - np.pi) < 0.01
    assert -np.pi < fused[2] <= np.pi
    np.testing.assert_allclose(fused[:2], [0.01, -0.02], atol=1e-12)


def stacked_angle_sets(rng, n):
    """(60, n, 3) angle sets: 20 near 0, 20 straddling the +-pi seam on
    every axis, 20 anywhere in (-pi, pi]."""
    seam = np.pi + rng.uniform(-0.05, 0.05, (20, n, 3))
    return np.concatenate([rng.uniform(-0.2, 0.2, (20, n, 3)),
                           np.where(seam > np.pi, seam - 2 * np.pi, seam),
                           rng.uniform(-np.pi, np.pi, (20, n, 3))])


@pytest.mark.parametrize("n", [4, 3])
def test_stacked_median_equals_row_by_row_calls(n):
    angles = stacked_angle_sets(np.random.default_rng(6 + n), n)
    fused = fuse_rotation_median(angles)
    assert fused.shape == (60, 3)
    assert np.all(np.abs(fused[20:40]) > np.pi - 0.05)
    for f in range(60):
        assert fused[f].tobytes() == fuse_rotation_median(angles[f]).tobytes()


def test_stacked_scale_systems_equal_row_by_row_calls():
    rng = np.random.default_rng(8)
    rot = rot_from_angles(fuse_rotation_median(stacked_angle_sets(rng, 4)))
    d, l = rng.normal(0.0, 0.01, (60, 3)), rng.normal(0.0, 0.01, (60, 3, 3))
    a, b = build_scale_system(d, rot, l, CAMS)
    assert a.shape == (60, 9, 4) and b.shape == (60, 9)
    for f in range(60):
        a_f, b_f = build_scale_system(d[f], rot[f], l[f], CAMS)
        assert a[f].tobytes() == a_f.tobytes() and b[f].tobytes() == b_f.tobytes()


# ---------------------------------------------------------------------------
# scale system
# ---------------------------------------------------------------------------

def test_build_scale_system_shape_and_sparsity():
    pose = np.array([0.01, -0.004, 0.007, 0.01, -0.02, 0.015])
    a, b = scale_system(pose, ground_truth_inputs(pose))
    assert a.shape == (9, 4)
    assert b.shape == (9,)
    # each row: column 0 plus at most one of columns 1..3
    for row in range(9):
        assert np.count_nonzero(a[row, 1:]) <= 1


def test_build_scale_system_zero_rhs_for_identity_rotation():
    pose = np.array([0.01, -0.004, 0.007, 0.0, 0.0, 0.0])
    _, b = build_scale_system(pose[:3], np.eye(3), ground_truth_inputs(pose), CAMS)
    np.testing.assert_array_equal(b, np.zeros(9))


def test_build_scale_system_ground_truth_consistency():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pose = np.concatenate([rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.1, 0.1, 3)])
        a, b = scale_system(pose, ground_truth_inputs(pose))
        np.testing.assert_allclose(a @ np.ones(4), b, atol=1e-12)


def test_solve_scales_recovers_unit_scales():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pose = np.concatenate([rng.uniform(-0.05, 0.05, 3), rng.uniform(0.01, 0.1, 3)])
        a, b = scale_system(pose, ground_truth_inputs(pose))
        scales, residual, _ = solve_scales(a, b, pose[:3])
        np.testing.assert_allclose(scales, np.ones(4), atol=1e-9)
        assert residual < 1e-10


def test_solve_scales_doubled_locals_halve_camera_scales():
    pose = np.array([0.02, -0.01, 0.015, 0.03, -0.04, 0.05])
    doubled = 2.0 * ground_truth_inputs(pose)
    a, b = scale_system(pose, doubled)
    scales, _, _ = solve_scales(a, b, pose[:3])
    np.testing.assert_allclose(scales, [1.0, 0.5, 0.5, 0.5], atol=1e-9)


def test_solve_scales_pure_rotation_is_ill_conditioned():
    pose = np.array([0.0, 0.0, 0.0, 0.02, -0.01, 0.03])
    a, b = scale_system(pose, ground_truth_inputs(pose))
    with pytest.raises(IllConditioned):
        solve_scales(a, b, np.zeros(3))


def test_solve_scales_zero_rhs_is_ill_conditioned():
    pose = np.array([0.01, -0.004, 0.007, 0.0, 0.0, 0.0])
    a, b = build_scale_system(pose[:3], np.eye(3), ground_truth_inputs(pose), CAMS)
    with pytest.raises(IllConditioned):
        solve_scales(a, b, pose[:3])


def test_rigidity_relation_holds_on_ground_truth():
    # R_j D_k + S_j d_j = S_kj R_k l_kj + D_k with unit scales.
    rng = np.random.default_rng(4)
    for _ in range(20):
        pose = np.concatenate([rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.2, 0.2, 3)])
        rot = rot_from_angles(pose[3:])
        local = true_local_pose(pose, CAMS)
        for k in (1, 2, 3):
            cam = RIG.cameras[k]
            lhs = rot @ cam.D + pose[:3]
            rhs = cam.R @ local[k, :3] + cam.D
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_scale_homogeneity_leaves_fused_translation_unchanged():
    pose = np.array([0.02, -0.01, 0.015, 0.03, -0.04, 0.05])
    for c in (0.5, 2.0, 7.5):
        scaled = c * ground_truth_inputs(pose)
        a, b = scale_system(pose, scaled)
        scales, _, _ = solve_scales(a, b, pose[:3])
        np.testing.assert_allclose(scales[1:], np.ones(3) / c, atol=1e-9)
        np.testing.assert_allclose(scales[0] * pose[:3], pose[:3], atol=1e-9)


# ---------------------------------------------------------------------------
# pose fusion
# ---------------------------------------------------------------------------

def per_camera_truth(pose):
    """Local translations (4, 3) and body angles (4, 3) of every camera."""
    local = true_local_pose(pose, CAMS)
    return local[:, :3], local_to_body_pose(local, CAMS)[:, 3:]


def fuse_frame(l, body_angles, prev_scales):
    """fuse_pose on one frame's local translations l (4, 3) and body angles
    (4, 3), with the median and the system built as the pipeline builds
    them."""
    angles = fuse_rotation_median(body_angles)
    a, b = build_scale_system(l[0], rot_from_angles(angles), l[1:], CAMS)
    return fuse_pose(a, b, l[0], angles, prev_scales)


def test_fuse_pose_exact_inputs():
    pose = np.array([0.02, -0.01, 0.015, 0.03, -0.04, 0.05])
    result = fuse_frame(*per_camera_truth(pose), np.ones(4))
    assert isinstance(result, FusionResult)
    np.testing.assert_allclose(result.pose[:3], pose[:3], atol=1e-9)
    np.testing.assert_allclose(result.pose[3:], pose[3:], atol=1e-9)
    np.testing.assert_allclose(result.scales, np.ones(4), atol=1e-9)


def test_fuse_pose_corrects_injected_reference_scale():
    # Camera 1 reports half the true translation; the system should solve
    # S_j = 2 and restore the true fused translation.
    pose = np.array([0.02, -0.01, 0.015, 0.03, -0.04, 0.05])
    l, angles = per_camera_truth(pose)
    l[0] *= 0.5
    result = fuse_frame(l, angles, np.ones(4))
    assert result.scales[0] == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(result.pose[:3], pose[:3], atol=1e-6)


def test_fuse_pose_degenerate_falls_back_to_previous_scales():
    # First frame: no motion, identity rotation -> ill-conditioned system;
    # the fused translation is d_j unchanged under prev scales of 1.
    pose = np.array([0.01, -0.004, 0.007, 0.0, 0.0, 0.0])
    result = fuse_frame(*per_camera_truth(pose), np.ones(4))
    assert result.ill_conditioned
    np.testing.assert_allclose(result.pose[:3], pose[:3], atol=1e-15)
    np.testing.assert_array_equal(result.scales, np.ones(4))


def test_local_to_body_is_identity_for_reference_camera():
    pose = np.array([0.03, -0.02, 0.01, 0.04, 0.05, -0.06])
    body = local_to_body_pose(true_local_pose(pose, CAMS), CAMS)
    np.testing.assert_allclose(body[0], pose, atol=1e-12)


def test_local_to_body_roundtrip_all_cameras():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pose = np.concatenate([rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.2, 0.2, 3)])
        body = local_to_body_pose(true_local_pose(pose, CAMS), CAMS)
        for k in range(4):
            np.testing.assert_allclose(body[k], pose, atol=1e-12)


def test_scale_system_condition_field():
    pose = np.array([0.02, -0.01, 0.015, 0.03, -0.04, 0.05])
    a, b = scale_system(pose, ground_truth_inputs(pose))
    _, _, condition = solve_scales(a, b, pose[:3])
    assert np.isfinite(condition)
    assert condition >= 1.0
