import numpy as np
import pytest

from rigpose.ekf import (
    FilterTuning,
    PoseFilterState,
    initial_structure_covariance,
    make_pose_filter,
    measure,
    pose_measurement_rows,
    pose_predict,
    pose_update,
    structure_update_batch,
    transition_matrix,
)
from rigpose.errors import BehindCamera
from rigpose.geometry import (
    Z_MIN,
    Camera,
    CameraRig,
    CameraStack,
    Intrinsics,
    Pose,
    back_project,
    default_nonoverlap_rig,
    default_overlap_rig,
    project,
    world_to_camera_k,
)

TUNING = FilterTuning()


def reference_rig():
    return CameraRig([Camera(D=np.zeros(3), R=np.eye(3))], layout="non-overlapping")


def stack(rig):
    # every camera of the rig on one pose filter
    return CameraStack.of(rig.cameras, np.zeros(len(rig.cameras), dtype=int))


def single(n):
    return np.zeros(n, dtype=int)


def rows_at(x, cam, points):
    # (uv, jac, front) of one camera on one filter's state x
    return pose_measurement_rows(np.atleast_2d(x), CameraStack.of([cam], [0]),
                                 single(len(points)), points)


def update(state, obs, rig):
    # measure the observations at the filter's state, then update with them
    out, _ = pose_update(state, measure(state.x, stack(rig), *obs), stack(rig))
    return out


def structure_update(means, covs, uv, pose_vec, cam, r_var):
    # (means, covs, front) of one camera's points at one pose
    return structure_update_batch(means, covs, uv, np.atleast_2d(pose_vec),
                                  CameraStack.of([cam], [0]), single(len(means)), r_var)


def observe(rig, pose_vec, points, cameras=(0,), noise=0.0, rng=None):
    # (ids, uv, seg, points) of the given cameras seeing points at pose_vec
    pose = Pose.from_vector(np.ravel(pose_vec)[:6])
    uvs = []
    for k in cameras:
        uv = project(world_to_camera_k(pose, rig, k, points), rig.camera(k).intrinsics)
        if noise > 0:
            uv = uv + rng.normal(0, noise, uv.shape)
        uvs.append(uv)
    n = len(points)
    return (np.tile(np.arange(n), len(cameras)), np.concatenate(uvs),
            np.repeat(np.asarray(cameras), n), np.tile(points, (len(cameras), 1)))


def spread_points(rng, n=100):
    return np.stack(
        [rng.uniform(-0.25, 0.25, n), rng.uniform(-0.18, 0.18, n), rng.uniform(0.7, 1.0, n)],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_zero_velocity_zero_q():
    state = PoseFilterState(np.zeros(12), np.eye(12) * 1e-4, np.zeros((12, 12)), 0.25)
    out = pose_predict(state)
    np.testing.assert_array_equal(out.x[0], np.zeros(12))
    a = transition_matrix()
    np.testing.assert_allclose(out.P[0], a @ state.P[0] @ a.T, atol=1e-15)


def test_predict_integrates_velocity():
    x = np.zeros(12)
    x[6] = 0.01
    state = PoseFilterState(x, np.eye(12) * 1e-4, np.zeros((12, 12)), 0.25)
    out = pose_predict(state)
    assert out.x[0, 0] == pytest.approx(0.01)
    assert out.x[0, 6] == pytest.approx(0.01)


def test_predict_grows_covariance_with_q():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.normal(size=(12, 12))
        p = m @ m.T + 1e-6 * np.eye(12)
        state = PoseFilterState(np.zeros(12), p, TUNING.process_noise(), 0.25)
        out = pose_predict(state)
        assert np.trace(out.P[0]) >= np.trace(p)


# ---------------------------------------------------------------------------
# measurement jacobian
# ---------------------------------------------------------------------------

def test_jacobian_velocity_columns_zero():
    # The measurement model reads only the pose states: changing the
    # velocity leaves the prediction and the Jacobian untouched, so the
    # velocity columns of H are zero and the update needs the six pose
    # columns alone.
    rng = np.random.default_rng(1)
    rig = default_overlap_rig()
    state = make_pose_filter(rng.uniform(-0.05, 0.05, 6), np.zeros(6), TUNING)
    moving = state.x.copy()
    moving[:, 6:] = rng.uniform(-0.05, 0.05, 6)
    points = spread_points(rng, 10)
    for k in (0, 1):
        uv, jac, _ = rows_at(state.x, rig.camera(k), points)
        uv_moving, jac_moving, _ = rows_at(moving, rig.camera(k), points)
        assert jac.shape == (10, 2, 6)
        np.testing.assert_array_equal(uv_moving, uv)
        np.testing.assert_array_equal(jac_moving, jac)


def test_jacobian_on_axis_translation_derivative():
    # Feature on the optical axis at identity pose: du/dtx = -fx/z.
    cam = Camera(D=np.zeros(3), R=np.eye(3), intrinsics=Intrinsics())
    z = 0.8
    _, jac, _ = rows_at(np.zeros(12), cam, np.array([[0.0, 0.0, z]]))
    assert jac[0, 0, 0] == pytest.approx(-cam.intrinsics.fx / z, rel=1e-12)
    assert jac[0, 1, 1] == pytest.approx(-cam.intrinsics.fy / z, rel=1e-12)


def test_jacobian_matches_finite_differences_100_configurations():
    rng = np.random.default_rng(2)
    rig = default_nonoverlap_rig()
    h_step = 1e-6
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(0, 4))
        cam = rig.camera(k)
        pose_vec = np.concatenate(
            [rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.01, 0.01, 6)]
        )
        local = np.stack(
            [rng.uniform(-0.2, 0.2, 5), rng.uniform(-0.15, 0.15, 5), rng.uniform(0.7, 1.0, 5)],
            axis=-1,
        )
        points = local @ cam.R.T + cam.D
        _, jac, _ = rows_at(pose_vec, cam, points)
        for i in range(6):
            plus, minus = pose_vec.copy(), pose_vec.copy()
            plus[i] += h_step
            minus[i] -= h_step
            up, _, _ = rows_at(plus, cam, points)
            um, _, _ = rows_at(minus, cam, points)
            numeric = (up - um) / (2 * h_step)
            denom = np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, (np.abs(numeric - jac[:, :, i]) / denom).max())
    assert worst < 1e-5


def test_jacobian_behind_camera():
    # Points behind their camera or at depth <= Z_MIN are flagged; measure
    # drops their rows and the filter updates with the rest.
    rig = reference_rig()
    points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 5e-7]])
    _, _, front = rows_at(np.zeros(12), rig.camera(0), points)
    np.testing.assert_array_equal(front, [True, False, False])
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    batch = measure(state.x, stack(rig), np.arange(3), np.full((3, 2), 300.0), single(3), points)
    assert batch.ids.tolist() == [0]
    assert batch.n_rows == 2
    out, skipped = pose_update(state, batch, stack(rig))
    assert skipped.tolist() == [False]
    assert np.all(np.isfinite(out.x))
    assert np.any(out.x != state.x)


# ---------------------------------------------------------------------------
# pose update
# ---------------------------------------------------------------------------

def test_update_zero_innovation_leaves_state_shrinks_covariance():
    rng = np.random.default_rng(3)
    rig = reference_rig()
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    obs = observe(rig, state.x, spread_points(rng, 30))
    out = update(state, obs, rig)
    np.testing.assert_allclose(out.x, state.x, atol=1e-12)
    assert np.trace(out.P[0]) < np.trace(state.P[0])


def test_update_empty_batch():
    # An empty batch skips every filter and leaves its state as it was.
    rig = reference_rig()
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    batch = measure(state.x, stack(rig), single(0), np.zeros((0, 2)), single(0),
                    np.zeros((0, 3)))
    assert batch.n_rows == 0
    out, skipped = pose_update(state, batch, stack(rig))
    assert skipped.tolist() == [True]
    np.testing.assert_array_equal(out.x, state.x)
    np.testing.assert_array_equal(out.P, state.P)


def test_update_stack_matches_each_filter_alone():
    # A stack of filters, each on its own camera, gives each filter the bits
    # it gets alone. A filter without rows, or whose prior cannot be
    # inverted, keeps its prior and is skipped, alone or in the stack.
    rng = np.random.default_rng(11)
    rig = default_nonoverlap_rig()
    poses = rng.uniform(-0.02, 0.02, (4, 6))
    state = pose_predict(make_pose_filter(poses, rng.uniform(-0.01, 0.01, (4, 6)), TUNING))
    state.P[1] = 0.0
    parts = {}
    for k in (0, 1, 3):
        cam = rig.camera(k)
        pts = spread_points(rng, 20 + 5 * k) @ cam.R.T + cam.D
        parts[k] = observe(rig, poses[k], pts, cameras=(k,), noise=0.5, rng=rng)
    cams = CameraStack.of(rig.cameras, np.arange(4))
    obs = [np.concatenate(field) for field in zip(*parts.values())]
    out, skipped = pose_update(state, measure(state.x, cams, *obs), cams)
    assert skipped.tolist() == [False, True, True, False]
    for k in (1, 2):
        np.testing.assert_array_equal(out.x[k], state.x[k])
        np.testing.assert_array_equal(out.P[k], state.P[k])
    for k, (ids, uv, _, pts) in parts.items():
        alone = PoseFilterState(state.x[k], state.P[k], state.Q, state.r_var)
        cam = CameraStack.of([rig.camera(k)], [0])
        one, skipped_alone = pose_update(
            alone, measure(alone.x, cam, ids, uv, single(len(ids)), pts), cam)
        assert skipped_alone.tolist() == [k == 1]
        np.testing.assert_array_equal(out.x[k], one.x[0])
        np.testing.assert_array_equal(out.P[k], one.P[0])


def test_update_joseph_form_keeps_symmetry_and_psd():
    rng = np.random.default_rng(4)
    rig = default_overlap_rig()
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    points = spread_points(rng, 40)
    for _ in range(30):
        state = pose_predict(state)
        obs = observe(rig, state.x, points, cameras=(0, 1), noise=0.5, rng=rng)
        state = update(state, obs, rig)
        assert np.abs(state.P[0] - state.P[0].T).max() < 1e-12
        assert np.linalg.eigvalsh(state.P[0]).min() > -1e-10


def test_update_converges_to_static_truth():
    # Perturbed start, noiseless pixels, 100 features, 20 predict/update cycles.
    rng = np.random.default_rng(5)
    rig = reference_rig()
    truth = np.concatenate([rng.uniform(-0.02, 0.02, 3), rng.uniform(-0.02, 0.02, 3)])
    points = spread_points(rng, 100)
    obs = observe(rig, np.concatenate([truth, np.zeros(6)]), points)
    start = truth + rng.uniform(-0.01, 0.01, 6)
    state = make_pose_filter(start, np.zeros(6), TUNING)
    for _ in range(20):
        state = pose_predict(state)
        state = update(state, obs, rig)
    np.testing.assert_allclose(state.x[0, :6], truth, atol=1e-4)


def test_update_single_feature_keeps_unobserved_directions():
    # Two measurement rows can collapse at most a rank-2 subspace; the pose
    # stays underdetermined and every other direction keeps its prior scale.
    rig = reference_rig()
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    prior_min_eig = np.linalg.eigvalsh(state.P[0]).min()
    obs = observe(rig, state.x, np.array([[0.05, -0.02, 0.9]]))
    out = update(state, obs, rig)
    eigs = np.sort(np.linalg.eigvalsh(out.P[0]))
    assert np.sum(eigs < 0.1 * prior_min_eig) <= 2
    assert eigs[2] > 0.1 * prior_min_eig


def test_zero_noise_exact_init_tracks_scripted_trajectory():
    # Constant-velocity truth, exact seed: per-frame error < 1e-6 over 100 frames.
    rng = np.random.default_rng(7)
    rig = reference_rig()
    vel = np.array([0.002, -0.001, 0.0015, 0.0008, -0.0005, 0.0006])
    points = np.stack(
        [rng.uniform(-0.4, 0.4, 40), rng.uniform(-0.3, 0.3, 40), rng.uniform(1.4, 2.0, 40)],
        axis=-1,
    )
    state = make_pose_filter(vel.copy(), vel.copy(), TUNING)  # state at frame 1
    for j in range(2, 100):
        truth = j * vel
        state = pose_predict(state)
        obs = observe(rig, np.concatenate([truth, np.zeros(6)]), points)
        state = update(state, obs, rig)
        assert np.abs(state.x[0, :6] - truth).max() < 1e-6


def test_innovation_whiteness_on_consistent_model():
    # Velocity random walk matched to the filter's Q; NIS should stay inside
    # the 95% chi-square band (m = 20 rows) for >= 90% of frames.
    chi2_20_lo, chi2_20_hi = 9.59078, 34.16961
    rng = np.random.default_rng(8)
    rig = reference_rig()
    # gentle process noise so the simulated walk keeps the points in view
    tuning = FilterTuning(q_pose=1e-8, q_vel=1e-7)
    points = np.stack(
        [rng.uniform(-0.4, 0.4, 10), rng.uniform(-0.3, 0.3, 10), rng.uniform(1.4, 2.0, 10)],
        axis=-1,
    )
    truth = np.zeros(12)
    state = make_pose_filter(np.zeros(6), np.zeros(6), tuning)
    in_band = 0
    total = 0
    a = transition_matrix()
    for j in range(80):
        truth = a @ truth
        truth[:6] += rng.normal(0, np.sqrt(tuning.q_pose), 6)
        truth[6:] += rng.normal(0, np.sqrt(tuning.q_vel), 6)
        state = pose_predict(state)
        obs = observe(rig, truth, points, noise=tuning.r_px, rng=rng)
        _, uv, seg, pts = obs
        predicted, h, _ = pose_measurement_rows(state.x, stack(rig), seg, pts)
        predicted, h = predicted.ravel(), h.reshape(-1, 6)
        observed = uv.ravel()
        s = h @ state.P[0, :6, :6] @ h.T + state.r_var * np.eye(len(h))
        innov = observed - predicted
        nis = innov @ np.linalg.solve(s, innov)
        state = update(state, obs, rig)
        if j >= 15:  # steady state
            total += 1
            in_band += chi2_20_lo <= nis <= chi2_20_hi
    assert in_band / total >= 0.90


# ---------------------------------------------------------------------------
# structure filters
# ---------------------------------------------------------------------------

def structure_update_reference(m, p, observed, pose_vec, cam, r_var):
    """One point's EKF update written out with dense algebra: the oracle
    the batched filter is checked against."""
    pose = Pose.from_vector(pose_vec[:6])
    rot = pose.rotation()
    orient = rot @ cam.R
    p_cam = orient.T @ (m - pose.d - rot @ cam.D)
    if p_cam[2] <= 0:
        raise BehindCamera("point behind the camera")
    intr = cam.intrinsics
    x, y, z = p_cam
    predicted = np.array([intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy])
    jp = np.array([[intr.fx / z, 0.0, -intr.fx * x / z**2],
                   [0.0, intr.fy / z, -intr.fy * y / z**2]])
    h = jp @ orient.T
    s = h @ p @ h.T + r_var * np.eye(2)
    gain = p @ h.T @ np.linalg.inv(s)
    ikh = np.eye(3) - gain @ h
    return m + gain @ (observed - predicted), ikh @ p @ ikh.T + r_var * gain @ gain.T


def test_structure_update_zero_innovation():
    cam = reference_rig().camera(0)
    point = np.array([0.05, -0.03, 0.8])
    uv = project(point, cam.intrinsics)
    m, _, _ = structure_update(
        point[None, :], np.diag([1e-2, 1e-2, 0.25])[None], uv[None, :], np.zeros(6), cam, 0.25
    )
    np.testing.assert_allclose(m[0], point, atol=1e-12)


def test_structure_update_behind_camera():
    # A point behind its camera is left out of the update.
    cam = reference_rig().camera(0)
    m, p, front = structure_update(
        np.array([[0.0, 0.0, -0.5]]), np.eye(3)[None], np.array([[320.0, 240.0]]),
        np.zeros(6), cam, 0.25,
    )
    assert front.tolist() == [False]
    assert m.shape == (0, 3)
    assert p.shape == (0, 3, 3)


def test_structure_depth_converges_with_parallax():
    # Wrong initial depth, alternating views with lateral baseline: depth
    # error shrinks monotonically.
    rig = reference_rig()
    cam = rig.camera(0)
    truth = np.array([0.05, -0.03, 0.8])
    pose_a = Pose.identity()
    pose_b = Pose([0.1, 0.0, 0.0], [0.0, 0.0, 0.0])
    uv_a = project(truth, cam.intrinsics)
    uv_b = project(truth - pose_b.d, cam.intrinsics)
    m = back_project(uv_a[None], cam.intrinsics, 1.0)  # orthographic init on A's ray
    p = initial_structure_covariance(TUNING, 1)
    errors = [abs(m[0, 2] - truth[2])]
    for pose, uv in [(pose_b, uv_b), (pose_a, uv_a)] * 5:
        m, p, _ = structure_update(m, p, uv[None, :], pose.as_vector(), cam, 0.25)
        errors.append(abs(m[0, 2] - truth[2]))
    for before, after in zip(errors, errors[1:]):
        assert after <= before + 1e-12
    assert errors[-1] < 0.05 * errors[0]


def test_structure_stationary_camera_depth_stays_uncertain():
    # Orthographic init at depth 1.0 for a true depth of 0.8, stationary
    # camera: a single noisy update collapses the lateral variance while
    # the depth variance keeps >= 90% of its prior (no parallax), and a
    # noiseless stream leaves the estimate pinned to the observed ray.
    rng = np.random.default_rng(10)
    rig = reference_rig()
    cam = rig.camera(0)
    truth = np.array([0.004, -0.003, 0.8])
    uv = project(truth, cam.intrinsics)
    m = back_project(uv[None], cam.intrinsics, 1.0)
    p = initial_structure_covariance(TUNING, 1)

    noisy = uv + rng.normal(0, 0.5, 2)
    m1, p1, _ = structure_update(m, p, noisy[None, :], np.zeros(6), cam, 0.25)
    assert p1[0, 0, 0] < 0.01 * TUNING.p0_struct_lateral
    assert p1[0, 1, 1] < 0.01 * TUNING.p0_struct_lateral
    assert p1[0, 2, 2] >= 0.9 * TUNING.p0_struct_depth

    for _ in range(20):
        m, p, _ = structure_update(m, p, uv[None, :], np.zeros(6), cam, 0.25)
    np.testing.assert_allclose(project(m[0], cam.intrinsics), uv, atol=1e-9)
    assert abs(m[0, 2] - 1.0) < 1e-9  # depth cannot move without parallax
    assert p[0, 2, 2] >= 0.9 * TUNING.p0_struct_depth


def test_structure_batch_matches_single_updates():
    # A point behind its camera among them is left out, and the others get
    # the bits they get without it.
    rng = np.random.default_rng(9)
    rig = default_nonoverlap_rig()
    cam = rig.camera(1)
    pose_vec = np.concatenate([rng.uniform(-0.02, 0.02, 6), np.zeros(6)])
    pts = spread_points(rng, 8) @ cam.R.T + cam.D
    uv = project(world_to_camera_k(Pose.from_vector(pose_vec[:6]), rig, 1, pts), cam.intrinsics)
    uv = uv + rng.normal(0, 0.5, (8, 2))
    covs = initial_structure_covariance(TUNING, 8)
    batch_m, batch_p, front = structure_update(pts, covs, uv, pose_vec, cam, 0.25)
    assert front.all()
    behind = cam.D - 0.8 * cam.R[:, 2]
    m9, p9, front9 = structure_update(
        np.insert(pts, 3, behind, axis=0), np.insert(covs, 3, covs[0], axis=0),
        np.insert(uv, 3, [320.0, 240.0], axis=0), pose_vec, cam, 0.25,
    )
    assert front9.tolist() == [True] * 3 + [False] + [True] * 5
    np.testing.assert_array_equal(m9, batch_m)
    np.testing.assert_array_equal(p9, batch_p)
    for i in range(8):
        m, p = structure_update_reference(pts[i], covs[i], uv[i], pose_vec, cam, 0.25)
        np.testing.assert_allclose(m, batch_m[i], atol=1e-12)
        np.testing.assert_allclose(p, batch_p[i], atol=1e-12)



def test_kernels_leave_out_points_at_or_behind_the_image_plane_quietly():
    # Depth exactly 0, exactly Z_MIN and behind the camera: neither kernel
    # divides by such a depth, and neither leaves a row or an update for it.
    rig = reference_rig()
    points = np.array([[0.05, -0.02, 0.9], [0.1, 0.0, 0.0], [0.0, 0.0, Z_MIN], [0.0, 0.0, -1.0]])
    uv = np.full((4, 2), 300.0)
    state = make_pose_filter(np.zeros(6), np.zeros(6), TUNING)
    with np.errstate(all="raise"):
        batch = measure(state.x, stack(rig), np.arange(4), uv, single(4), points)
        m, p, front = structure_update(points, initial_structure_covariance(TUNING, 4), uv,
                                       np.zeros(6), rig.camera(0), 0.25)
    assert batch.ids.tolist() == [0]
    assert batch.jac.shape == (1, 2, 6) and np.all(np.isfinite(batch.jac))
    assert front.tolist() == [True, False, False, False]
    assert m.shape == (1, 3) and p.shape == (1, 3, 3)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(p))


def test_kernels_give_each_point_its_bits_alone():
    # Four monocular chains and a stereo filter of four segments in one
    # stack: every point's measurement row and structure update has the
    # bits it gets when computed alone.
    rng = np.random.default_rng(12)
    cameras = default_nonoverlap_rig().cameras + default_overlap_rig().cameras
    cams = CameraStack.of(cameras, [0, 1, 2, 3, 4, 4, 4, 4])
    x = np.concatenate([rng.uniform(-0.02, 0.02, (5, 6)), np.zeros((5, 6))], axis=1)
    seg = np.repeat(np.arange(8), 6)
    points = np.concatenate([spread_points(rng, 6) @ cam.R.T + cam.D for cam in cameras])
    ids = np.arange(len(seg))
    uv = np.column_stack([rng.uniform(0, 640, len(seg)), rng.uniform(0, 480, len(seg))])
    covs = initial_structure_covariance(TUNING, len(seg))
    batch = measure(x, cams, ids, uv, seg, points)
    means, p, front = structure_update_batch(points, covs, uv, x, cams, seg, 0.25)
    assert front.all() and batch.ids.tolist() == ids.tolist()
    for i in ids:
        one = slice(i, i + 1)
        alone = measure(x, cams, ids[one], uv[one], seg[one], points[one])
        np.testing.assert_array_equal(alone.innovation[0], batch.innovation[i])
        np.testing.assert_array_equal(alone.jac[0], batch.jac[i])
        m1, p1, _ = structure_update_batch(points[one], covs[one], uv[one], x, cams, seg[one],
                                           0.25)
        np.testing.assert_array_equal(m1[0], means[i])
        np.testing.assert_array_equal(p1[0], p[i])
