import json

import numpy as np
import pytest

from rigpose import ekf
from rigpose.errors import (
    BehindCamera,
    GimbalProximity,
    InputError,
    InvalidCameraIndex,
    NonOrthonormalInput,
)
from rigpose.geometry import (
    Camera,
    CameraRig,
    CameraStack,
    Intrinsics,
    Pose,
    angles_from_rot,
    back_project,
    default_nonoverlap_rig,
    default_overlap_rig,
    equivalent_rotation,
    pinhole_derivatives,
    project,
    read_rig,
    rig_from_dict,
    rig_to_dict,
    rot_from_angles,
    rot_y,
    view_points,
    world_to_camera,
    world_to_camera_k,
    write_rig,
)


def test_rot_from_angles_identity():
    assert np.array_equal(rot_from_angles((0.0, 0.0, 0.0)), np.eye(3))


def test_rot_from_angles_single_axis_maps_y_to_z():
    rot = rot_from_angles((np.pi / 2, 0.0, 0.0))
    np.testing.assert_allclose(rot @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_rotation_is_orthonormal_with_unit_det():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rot = rot_from_angles(rng.uniform(-0.5, 0.5, 3))
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_angle_roundtrip_small_angles():
    rng = np.random.default_rng(1)
    for _ in range(200):
        angles = rng.uniform(-0.02, 0.02, 3)
        back = angles_from_rot(rot_from_angles(angles))
        np.testing.assert_allclose(back, angles, atol=1e-10)


def test_angle_roundtrip_half_radian():
    rng = np.random.default_rng(2)
    for _ in range(200):
        angles = rng.uniform(-0.49, 0.49, 3)
        back = angles_from_rot(rot_from_angles(angles))
        np.testing.assert_allclose(back, angles, atol=1e-10)


def test_angles_from_rot_identity():
    assert np.array_equal(angles_from_rot(np.eye(3)), np.zeros(3))


def test_angles_from_rot_example_triple():
    angles = np.array([0.01, -0.02, 0.015])
    np.testing.assert_allclose(angles_from_rot(rot_from_angles(angles)), angles, atol=1e-10)


def test_angles_from_rot_rejects_non_rotation():
    bad = np.eye(3)
    bad[2] = 0.0
    with pytest.raises(NonOrthonormalInput):
        angles_from_rot(bad)


def test_angles_from_rot_gimbal_proximity():
    with pytest.raises(GimbalProximity):
        angles_from_rot(rot_y(np.pi / 2))


def test_world_to_camera_identity_pose():
    pose = Pose.identity()
    np.testing.assert_allclose(world_to_camera(pose, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_world_to_camera_pure_translation():
    pose = Pose([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(world_to_camera(pose, [1.0, 2.0, 3.0]), [0.0, 2.0, 3.0])


def test_world_to_camera_pure_rotation():
    pose = Pose([0.0, 0.0, 0.0], [0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(
        world_to_camera(pose, [1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15
    )


def test_world_to_camera_inverse_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pose = Pose(rng.uniform(-1, 1, 3), rng.uniform(-0.4, 0.4, 3))
        point = rng.uniform(-2, 2, 3)
        cam_pt = world_to_camera(pose, point)
        back = pose.rotation() @ cam_pt + pose.d
        np.testing.assert_allclose(back, point, atol=1e-12)


def test_world_to_camera_k_reference_matches_reference_transform():
    rig = default_overlap_rig()
    rng = np.random.default_rng(4)
    pose = Pose(rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.1, 0.1, 3))
    pts = rng.uniform(-1, 1, (20, 3))
    np.testing.assert_array_equal(
        world_to_camera_k(pose, rig, 0, pts), world_to_camera(pose, pts)
    )


def test_world_to_camera_k_pure_rig_offset():
    rig = default_overlap_rig()
    np.testing.assert_allclose(
        world_to_camera_k(Pose.identity(), rig, 1, [1.0, 0.0, 2.0]), [0.9, 0.0, 2.0]
    )


def test_world_to_camera_k_matches_composed_rigid_transform():
    # Oracle: camera-k coords = R_k^T applied to (reference coords - D_k).
    rig = default_nonoverlap_rig()
    rng = np.random.default_rng(5)
    for _ in range(20):
        pose = Pose(rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.3, 0.3, 3))
        point = rng.uniform(-1.5, 1.5, 3)
        for k in range(4):
            cam = rig.camera(k)
            via_reference = cam.R.T @ (world_to_camera(pose, point) - cam.D)
            np.testing.assert_allclose(
                world_to_camera_k(pose, rig, k, point), via_reference, atol=1e-12
            )


def test_world_to_camera_k_invalid_index():
    rig = default_overlap_rig()
    with pytest.raises(InvalidCameraIndex):
        world_to_camera_k(Pose.identity(), rig, 7, [0.0, 0.0, 1.0])


def test_project_on_axis():
    intr = Intrinsics(fx=1000, fy=1000, cx=320, cy=240)
    np.testing.assert_allclose(project([0.0, 0.0, 1.0], intr), [320.0, 240.0])


def test_project_similar_triangles():
    intr = Intrinsics(fx=1000, fy=1000, cx=320, cy=240)
    np.testing.assert_allclose(project([0.1, 0.0, 1.0], intr), [420.0, 240.0])


def test_project_behind_camera():
    intr = Intrinsics()
    with pytest.raises(BehindCamera):
        project([0.0, 0.0, -1.0], intr)


def test_back_project_to_depth_plane():
    # The inverse pinhole: pixels to the plane z = depth, and back.
    intr = Intrinsics()
    uv = np.array([[320.0, 240.0], [420.0, 240.0]])
    pts = back_project(uv, intr, 1.0)
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(pts[1], [0.1, 0.0, 1.0])
    np.testing.assert_allclose(project(pts, intr), uv, atol=1e-12)
    np.testing.assert_allclose(back_project(uv, intr, 2.5), 2.5 * pts)


def test_equivalent_rotation_identity_basis():
    local = rot_from_angles((0.01, 0.02, -0.03))
    np.testing.assert_array_equal(equivalent_rotation(np.eye(3), local), local)


def test_equivalent_rotation_identity_local():
    basis = rot_from_angles((0.0, 0.0, np.pi / 2))
    np.testing.assert_allclose(equivalent_rotation(basis, np.eye(3)), np.eye(3), atol=1e-15)


def test_equivalent_rotation_conjugates_axis():
    # Oracle: conjugation maps the rotation axis by R_k and preserves trace.
    basis = rot_from_angles((0.0, 0.0, np.pi / 2))
    local = rot_from_angles((0.01, 0.0, 0.0))
    eq = equivalent_rotation(basis, local)
    assert abs(np.trace(eq) - np.trace(local)) < 1e-10
    # axis of Rx is x; conjugated axis should be basis @ x = y
    axis = basis @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(eq @ axis, axis, atol=1e-12)


def test_equivalent_rotation_preserves_angle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        basis = rot_from_angles(rng.uniform(-0.5, 0.5, 3))
        local = rot_from_angles(rng.uniform(-0.3, 0.3, 3))
        eq = equivalent_rotation(basis, local)
        assert abs(np.trace(eq) - np.trace(local)) < 1e-10


def test_equivalent_rotation_rejects_non_rotation():
    with pytest.raises(NonOrthonormalInput):
        equivalent_rotation(np.ones((3, 3)), np.eye(3))


def test_projection_chain_jacobian_matches_central_differences():
    # project(world_to_camera_k(...)) differentiated against h = 1e-6
    rig = default_nonoverlap_rig()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    for _ in range(20):
        k = int(rng.integers(0, 4))
        cam = rig.camera(k)
        pose_vec = np.concatenate(
            [rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.05, 0.05, 3), np.zeros(6)]
        )
        local = np.stack(
            [rng.uniform(-0.2, 0.2, 4), rng.uniform(-0.15, 0.15, 4), rng.uniform(0.7, 1.0, 4)],
            axis=-1,
        )
        pts = local @ cam.R.T + cam.D
        seg = np.full(len(pts), k)
        _, jac, _ = ekf.pose_measurement_rows(pose_vec[None], cams, seg, pts)
        for i in range(6):
            plus, minus = pose_vec.copy(), pose_vec.copy()
            plus[i] += h
            minus[i] -= h
            up, _, _ = ekf.pose_measurement_rows(plus[None], cams, seg, pts)
            um, _, _ = ekf.pose_measurement_rows(minus[None], cams, seg, pts)
            numeric = (up - um) / (2 * h)
            denom = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, (np.abs(numeric - jac[:, :, i]) / denom).max())
    assert worst < 1e-5


def test_project_jacobian_shapes_and_behind_camera():
    cam = default_nonoverlap_rig().camera(1)
    rot = rot_from_angles((0.01, -0.02, 0.03))
    d = np.array([0.01, 0.0, -0.02])
    pts = np.array([[0.9, 0.1, 0.05], [0.8, -0.1, -0.1]])
    p_cam, uv = view_points(pts, rot, d, cam)
    intr = cam.intrinsics
    # with dp = I the chain rule gives d(pixel)/d(camera point)
    jp = pinhole_derivatives(p_cam, np.broadcast_to(np.eye(3), (2, 3, 3)),
                             np.full(2, intr.fx), np.full(2, intr.fy))
    assert p_cam.shape == (2, 3) and uv.shape == (2, 2)
    assert jp.shape == (2, 2, 3)
    np.testing.assert_allclose(uv, project(p_cam, cam.intrinsics), atol=1e-12)
    # d(pixel)/d(camera point) against central differences
    h = 1e-7
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        numeric = (project(p_cam + step, cam.intrinsics) - project(p_cam - step, cam.intrinsics)) / (2 * h)
        np.testing.assert_allclose(jp[:, :, i], numeric, rtol=1e-6, atol=1e-4)
    with pytest.raises(BehindCamera):
        project(np.array([[0.0, 0.0, 0.0]]), cam.intrinsics)


def test_rig_requires_identity_reference():
    with pytest.raises(InputError):
        CameraRig([Camera(D=np.array([0.1, 0, 0]), R=np.eye(3))])


def test_rig_rejects_unknown_layout():
    with pytest.raises(InputError):
        CameraRig([Camera(D=np.zeros(3), R=np.eye(3))], layout="circular")


def test_default_rigs_satisfy_invariants():
    for rig in (default_overlap_rig(), default_nonoverlap_rig()):
        ref = rig.camera(0)
        assert np.all(ref.D == 0.0) and np.array_equal(ref.R, np.eye(3))
        for cam in rig.cameras:
            np.testing.assert_allclose(cam.R @ cam.R.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(cam.R) - 1.0) < 1e-12
    # every non-reference camera of the non-overlapping rig is 0.1 m out
    for cam in default_nonoverlap_rig().cameras[1:]:
        assert np.linalg.norm(cam.D) == pytest.approx(0.1, abs=1e-12)


def test_rig_json_roundtrip(tmp_path):
    path = tmp_path / "rig.json"
    rig = default_nonoverlap_rig()
    write_rig(path, rig)
    back = read_rig(path)
    assert back.layout == rig.layout
    for a, b in zip(rig.cameras, back.cameras):
        np.testing.assert_allclose(a.D, b.D, atol=1e-15)
        np.testing.assert_allclose(a.R, b.R, atol=1e-12)
        assert a.intrinsics == b.intrinsics


def test_rig_from_dict_rejects_malformed():
    with pytest.raises(InputError):
        rig_from_dict({"cameras": [{"D": [0, 0]}]})


def test_read_rig_reports_json_error_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cameras": [,]}')
    with pytest.raises(InputError, match="line"):
        read_rig(path)


def test_rig_to_dict_is_json_serializable():
    json.dumps(rig_to_dict(default_overlap_rig()))
