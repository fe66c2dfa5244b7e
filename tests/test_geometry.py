import json

import numpy as np
import pytest

from reference import pixels, to_camera
from rigpose import ekf
from rigpose.errors import (
    GimbalProximity,
    InputError,
    NonOrthonormalInput,
)
from rigpose.geometry import (
    Camera,
    CameraRig,
    CameraStack,
    Intrinsics,
    back_project,
    change_basis,
    check_rotation,
    default_nonoverlap_rig,
    default_overlap_rig,
    euler_angles,
    pinhole_derivatives,
    read_rig,
    rig_from_dict,
    rig_to_dict,
    rot_from_angles,
    view_points,
    write_rig,
)


def camera_points(pose, cam, points):
    # view_points' coordinates of points (..., 3) in cam with the body at the pose row
    pose = np.asarray(pose, dtype=float)
    flat = np.asarray(points, dtype=float).reshape(-1, 3)
    p_cam = view_points(flat, rot_from_angles(pose[3:])[None], pose[None, :3],
                        CameraStack.of([cam], [0]), np.zeros(len(flat), dtype=int))[0]
    return p_cam.reshape(np.shape(points))


def to_reference(pose, points):
    # camera 0 of a rig is the reference camera: R^T (M - d)
    return camera_points(pose, default_overlap_rig().cameras[0], points)


def kernel_pixels(points_cam, intr):
    # view_points' pixels of camera-frame points: the camera at the identity pose
    pts = np.atleast_2d(np.asarray(points_cam, dtype=float))
    cams = CameraStack.of([Camera(np.zeros(3), np.eye(3), intr)], [0])
    return view_points(pts, np.eye(3)[None], np.zeros((1, 3)), cams,
                       np.zeros(len(pts), dtype=int))[1]


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
        back = euler_angles(rot_from_angles(angles))
        np.testing.assert_allclose(back, angles, atol=1e-10)


def test_angle_roundtrip_half_radian():
    rng = np.random.default_rng(2)
    for _ in range(200):
        angles = rng.uniform(-0.49, 0.49, 3)
        back = euler_angles(rot_from_angles(angles))
        np.testing.assert_allclose(back, angles, atol=1e-10)


def test_angles_from_rot_identity():
    assert np.array_equal(euler_angles(np.eye(3)), np.zeros(3))


def test_angles_from_rot_example_triple():
    angles = np.array([0.01, -0.02, 0.015])
    np.testing.assert_allclose(euler_angles(rot_from_angles(angles)), angles, atol=1e-10)


def test_angles_from_rot_rejects_non_rotation():
    # a matrix from outside the package is checked before it is decomposed
    bad = np.eye(3)
    bad[2] = 0.0
    with pytest.raises(NonOrthonormalInput):
        check_rotation(bad)


def test_angles_from_rot_gimbal_proximity():
    with pytest.raises(GimbalProximity):
        euler_angles(rot_from_angles([0.0, np.pi / 2, 0.0]))


def test_world_to_camera_identity_pose():
    pose = np.zeros(6)
    np.testing.assert_allclose(to_reference(pose, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_world_to_camera_pure_translation():
    pose = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(to_reference(pose, [1.0, 2.0, 3.0]), [0.0, 2.0, 3.0])


def test_world_to_camera_pure_rotation():
    pose = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(
        to_reference(pose, [1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15
    )


def test_world_to_camera_inverse_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pose = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.4, 0.4, 3)])
        point = rng.uniform(-2, 2, 3)
        cam_pt = to_reference(pose, point)
        back = rot_from_angles(pose[3:]) @ cam_pt + pose[:3]
        np.testing.assert_allclose(back, point, atol=1e-12)


def test_world_to_camera_k_reference_matches_reference_transform():
    rig = default_overlap_rig()
    rng = np.random.default_rng(4)
    pose = rng.uniform(-0.1, 0.1, 6)
    pts = rng.uniform(-1, 1, (20, 3))
    np.testing.assert_allclose(
        camera_points(pose, rig.cameras[0], pts), (pts - pose[:3]) @ rot_from_angles(pose[3:]),
        rtol=0, atol=1e-15,
    )


def test_world_to_camera_k_pure_rig_offset():
    rig = default_overlap_rig()
    np.testing.assert_allclose(
        camera_points(np.zeros(6), rig.cameras[1], [1.0, 0.0, 2.0]), [0.9, 0.0, 2.0]
    )


def test_world_to_camera_k_matches_composed_rigid_transform():
    # Oracles: camera-k coords = R_k^T applied to (reference coords - D_k),
    # and the plain-matmul placement of tests/reference.py.
    rig = default_nonoverlap_rig()
    rng = np.random.default_rng(5)
    for _ in range(20):
        pose = np.concatenate([rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.3, 0.3, 3)])
        point = rng.uniform(-1.5, 1.5, 3)
        for k in range(4):
            cam = rig.cameras[k]
            via_reference = cam.R.T @ (rot_from_angles(pose[3:]).T @ (point - pose[:3]) - cam.D)
            placed = camera_points(pose, cam, point)
            np.testing.assert_allclose(placed, via_reference, atol=1e-12)
            np.testing.assert_allclose(placed, to_camera(pose, cam, point), atol=1e-12)


def test_project_on_axis():
    intr = Intrinsics(fx=1000, fy=1000, cx=320, cy=240)
    np.testing.assert_allclose(kernel_pixels([0.0, 0.0, 1.0], intr), [[320.0, 240.0]])


def test_project_similar_triangles():
    intr = Intrinsics(fx=1000, fy=1000, cx=320, cy=240)
    np.testing.assert_allclose(kernel_pixels([0.1, 0.0, 1.0], intr), [[420.0, 240.0]])


def test_back_project_to_depth_plane():
    # The inverse pinhole: pixels to the plane z = depth, and back.
    intr = Intrinsics()
    uv = np.array([[320.0, 240.0], [420.0, 240.0]])
    center, ray = back_project(uv, np.eye(3)[None], np.zeros((1, 3)),
                               CameraStack.of([Camera(np.zeros(3), np.eye(3), intr)], [0]),
                               np.zeros(2, dtype=int))
    pts = center + ray
    np.testing.assert_allclose(pts[0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(pts[1], [0.1, 0.0, 1.0])
    np.testing.assert_allclose(pixels(pts, intr), uv, atol=1e-12)
    np.testing.assert_allclose(center + 2.5 * ray, 2.5 * pts)


@pytest.mark.parametrize("rig", [default_overlap_rig(), default_nonoverlap_rig()],
                         ids=["overlap", "nonoverlap"])
def test_back_project_inverts_view_points_at_a_pose(rig):
    # Each pixel's point at its camera-frame depth, on its ray through the
    # rig camera at the body pose, is the world point that view_points saw.
    rng = np.random.default_rng(31)
    cams = CameraStack.of(rig.cameras, [0, 1, 0, 1])
    poses = rng.uniform(-0.3, 0.3, (2, 6))
    seg = rng.integers(0, 4, 500)
    rot = rot_from_angles(poses[:, 3:])
    local = np.column_stack([rng.uniform(-0.3, 0.3, (500, 2)), rng.uniform(0.5, 3.0, 500)])
    center, ray = back_project(np.zeros((0, 2)), rot, poses[:, :3], cams, seg[:0])
    assert center.shape == ray.shape == (0, 3)
    body = rot[cams.body[seg]]
    w = body @ cams.R[seg]   # each pixel's camera-to-world orientation
    points = (poses[cams.body[seg], :3] + (body @ cams.D[seg][..., None])[..., 0]
              + (w @ local[..., None])[..., 0])
    p_cam, uv, front, *_ = view_points(points, rot, poses[:, :3], cams, seg)
    assert front.all()
    center, ray = back_project(uv, rot, poses[:, :3], cams, seg)
    np.testing.assert_allclose(np.einsum("nij,ni->nj", w, ray)[:, 2], 1.0, rtol=1e-14)
    np.testing.assert_allclose(center + p_cam[:, 2:] * ray, points, atol=1e-12)


def test_equivalent_rotation_identity_basis():
    local = rot_from_angles((0.01, 0.02, -0.03))
    np.testing.assert_array_equal(change_basis(np.eye(3), local), local)


def test_equivalent_rotation_identity_local():
    basis = rot_from_angles((0.0, 0.0, np.pi / 2))
    np.testing.assert_allclose(change_basis(basis, np.eye(3)), np.eye(3), atol=1e-15)


def test_equivalent_rotation_conjugates_axis():
    # Oracle: conjugation maps the rotation axis by R_k and preserves trace.
    basis = rot_from_angles((0.0, 0.0, np.pi / 2))
    local = rot_from_angles((0.01, 0.0, 0.0))
    eq = change_basis(basis, local)
    assert abs(np.trace(eq) - np.trace(local)) < 1e-10
    # axis of Rx is x; conjugated axis should be basis @ x = y
    axis = basis @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(eq @ axis, axis, atol=1e-12)


def test_equivalent_rotation_preserves_angle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        basis = rot_from_angles(rng.uniform(-0.5, 0.5, 3))
        local = rot_from_angles(rng.uniform(-0.3, 0.3, 3))
        eq = change_basis(basis, local)
        assert abs(np.trace(eq) - np.trace(local)) < 1e-10


def test_equivalent_rotation_rejects_non_rotation():
    # change_basis leaves its inputs unchecked: a basis from outside the
    # package goes through check_rotation first
    with pytest.raises(NonOrthonormalInput):
        check_rotation(np.ones((3, 3)))


def test_projection_chain_jacobian_matches_central_differences():
    # the pose rows' pixels differentiated against h = 1e-6
    rig = default_nonoverlap_rig()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    cams = CameraStack.of(rig.cameras, np.zeros(4, dtype=int))
    for _ in range(20):
        k = int(rng.integers(0, 4))
        cam = rig.cameras[k]
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
    cam = default_nonoverlap_rig().cameras[1]
    rot = rot_from_angles((0.01, -0.02, 0.03))
    d = np.array([0.01, 0.0, -0.02])
    pts = np.array([[0.9, 0.1, 0.05], [0.8, -0.1, -0.1]])
    p_cam, uv, *_ = view_points(pts, rot[None], d[None], CameraStack.of([cam], [0]),
                                np.zeros(2, dtype=int))
    intr = cam.intrinsics
    # with dp = I the chain rule gives d(pixel)/d(camera point); the kernel is
    # component-major, points last, so its (2, 3, N) output is turned to (N, 2, 3)
    jp = pinhole_derivatives(p_cam.T, np.broadcast_to(np.eye(3)[:, :, None], (3, 3, 2)),
                             np.repeat([[intr.fx], [intr.fy]], 2, axis=1)).transpose(2, 0, 1)
    assert p_cam.shape == (2, 3) and uv.shape == (2, 2)
    assert jp.shape == (2, 2, 3)
    np.testing.assert_allclose(uv, pixels(p_cam, intr), atol=1e-12)
    # d(pixel)/d(camera point) against central differences
    h = 1e-7
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        numeric = (pixels(p_cam + step, intr) - pixels(p_cam - step, intr)) / (2 * h)
        np.testing.assert_allclose(jp[:, :, i], numeric, rtol=1e-6, atol=1e-4)
    # a point at the camera's center is not in front of it: no pixel
    center = d + rot @ cam.D
    _, uv, front, *_ = view_points(center[None], rot[None], d[None], CameraStack.of([cam], [0]),
                                   np.zeros(1, dtype=int))
    assert front.tolist() == [False] and uv.shape == (0, 2)


def test_rig_requires_identity_reference():
    with pytest.raises(InputError):
        CameraRig([Camera(D=np.array([0.1, 0, 0]), R=np.eye(3))])


def test_rig_rejects_unknown_layout():
    with pytest.raises(InputError):
        CameraRig([Camera(D=np.zeros(3), R=np.eye(3))], layout="circular")


def test_default_rigs_satisfy_invariants():
    for rig in (default_overlap_rig(), default_nonoverlap_rig()):
        ref = rig.cameras[0]
        assert np.all(ref.D == 0.0) and np.array_equal(ref.R, np.eye(3))
        for cam in rig.cameras:
            np.testing.assert_allclose(cam.R @ cam.R.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(cam.R) - 1.0) < 1e-12
    # every non-reference camera of the non-overlapping rig is 0.1 m out
    for cam in default_nonoverlap_rig().cameras[1:]:
        assert np.linalg.norm(cam.D) == pytest.approx(0.1, abs=1e-12)


def test_rig_json_roundtrip(tmp_path):
    # Both default rigs, and a rig whose cameras differ from the default
    # intrinsics and from each other, read back as written: the same file
    # when written again, the same displacements and intrinsics, and the
    # rotations rebuilt from their angles.
    own = CameraRig(cameras=[
        Camera(D=np.zeros(3), R=np.eye(3),
               intrinsics=Intrinsics(fx=1024.0, fy=980.5, cx=400.0, cy=300.0,
                                     width=800, height=600)),
        Camera(D=np.array([0.2, 0.0, 0.0]), R=rot_from_angles([0.0, 0.3, 0.0]),
               intrinsics=Intrinsics(fx=512.0, fy=512.0, cx=160.0, cy=120.0,
                                     width=320, height=240)),
    ], layout="non-overlapping")
    for rig in (default_overlap_rig(), default_nonoverlap_rig(), own):
        path, again = tmp_path / "rig.json", tmp_path / "again.json"
        write_rig(path, rig)
        back = read_rig(path)
        write_rig(again, back)
        assert again.read_bytes() == path.read_bytes()
        assert back.layout == rig.layout and len(back) == len(rig)
        for a, b in zip(rig.cameras, back.cameras):
            np.testing.assert_array_equal(a.D, b.D)
            np.testing.assert_allclose(a.R, b.R, rtol=0, atol=1e-15)
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
