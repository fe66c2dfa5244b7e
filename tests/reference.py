"""Test-only references, written independently of the package's kernels.

`pixels` and `to_camera` are the pinhole and the rig placement as plain
matmuls, not through geometry.view_points, so a test that compares the
kernel with them compares two separate computations. `transition_matrix`
and `pose_update_reference` are the pose EKF's plant and its measurement
update in dense covariance form, the oracle of the block-form filter.
`scripted_trajectory` is the constant-velocity truth of the noiseless
tracking tests, and `random_walk` redraws simulate.gen_trajectory's
increments and chains them on its own. `stereo_gate` matches and gates
stereo pairs frame by frame on the raw stream, the oracle of the
pipeline's once-per-sequence pass. `rc_fusion` fuses the chains' poses one
frame at a time through the fusion helpers, the oracle of the RC stage
that builds every frame's median and system at once. `stream_of` builds an
observation stream, through its one constructor, from the per-frame lists
of per-camera (ids, pixels) that tests cut and edit by hand.

The kernel oracles keep the package's earlier written-out forms, against
which the reduce-form kernels are checked bit for bit: `axis_rotations`
and `rotation_reference` build Rx, Ry and Rz one axis at a time;
`view_points_reference`, `back_project_reference`,
`pose_measurement_rows_reference` and `structure_update_reference` write
every sum over a component axis as three (or two) separate terms added in
index order, and every cross product as its three differences;
`trajectory_per_frame` decomposes the walk's rotation into Euler angles
once per frame.
"""

import numpy as np

from rigpose import fusion
from rigpose.errors import IllConditioned
from rigpose.geometry import Z_MIN, camera_placement, euler_angles, rot_from_angles
from rigpose.simulate import Observations, Trajectory


def pixels(points_cam, intr) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3): u = fx x/z + cx,
    v = fy y/z + cy."""
    p = np.asarray(points_cam, dtype=float)
    return np.stack([intr.fx * p[..., 0] / p[..., 2] + intr.cx,
                     intr.fy * p[..., 1] / p[..., 2] + intr.cy], axis=-1)


def to_camera(pose, cam, points) -> np.ndarray:
    """Coordinates R_k^T R^T (M - d - R D_k) of world points M (..., 3) in
    rig camera cam (D_k, R_k) with the body at the pose row (d, angles of R)."""
    pose = np.asarray(pose, dtype=float)
    rot = rot_from_angles(pose[3:])
    return (np.asarray(points, dtype=float) - pose[:3] - rot @ cam.D) @ rot @ cam.R


def transition_matrix() -> np.ndarray:
    """The constant-velocity plant A = [[I, I], [0, I]] of the 12-state
    pose filter: pose += velocity."""
    a = np.eye(12)
    a[:6, 6:] = np.eye(6)
    return a


def pose_update_reference(x, p, jac, innovation, r_var):
    """One pose filter's EKF update in covariance form: the pixel rows jac
    (n, 2, 6) with innovation (n, 2) give H = [J 0], S = H P H^T + r I and
    K = P H^T S^-1; returns x + K innovation and the Joseph form
    (I - K H) P (I - K H)^T + r K K^T."""
    j = np.asarray(jac, dtype=float).reshape(-1, 6)
    h = np.zeros((len(j), 12))
    h[:, :6] = j
    s = h @ p @ h.T + r_var * np.eye(len(h))
    gain = np.linalg.solve(s, h @ p).T
    ikh = np.eye(12) - gain @ h
    return (x + gain @ np.ravel(innovation),
            ikh @ p @ ikh.T + r_var * gain @ gain.T)


def scripted_trajectory(n_frames: int, velocity) -> Trajectory:
    """Constant-velocity trajectory in pose-parameter space: pose at frame
    j is j * velocity. This is the regime where the constant-velocity plant
    model of the pose filter is exact."""
    velocity = np.asarray(velocity, dtype=float).reshape(6)
    return Trajectory(np.arange(n_frames)[:, None] * velocity)


def random_walk(cfg, rng):
    """The per-frame increments (F-1, 6) that gen_trajectory(cfg, rng) draws
    from a generator in the same state, and the translations (F, 3) and
    rotations (F, 3, 3) they chain to in the world frame, one frame at a
    time."""
    n = cfg.n_frames - 1
    t = rng.uniform(cfg.trans_min, cfg.trans_max, (n, 3)) * (rng.integers(0, 2, (n, 3)) * 2 - 1)
    r = rng.uniform(cfg.rot_min, cfg.rot_max, (n, 3)) * (rng.integers(0, 2, (n, 3)) * 2 - 1)
    d, rotations = [np.zeros(3)], [np.eye(3)]
    for step_t, step_r in zip(t, r):
        d.append(d[-1] + step_t)
        rotations.append(rot_from_angles(step_r) @ rotations[-1])
    return np.hstack([t, r]), np.array(d), np.array(rotations)


def stream_of(frames) -> Observations:
    """The observation stream of frames, a sequence of per-frame sequences
    of per-camera (ids, pixels), such as list(stream) or its edited copy."""
    frames = [list(frame) for frame in frames]
    pairs = [pair for frame in frames for pair in frame]
    return Observations(np.concatenate([np.asarray(ids, dtype=np.int64) for ids, _ in pairs]),
                        np.concatenate([np.reshape(uv, (-1, 2)) for _, uv in pairs]),
                        [[len(ids) for ids, _ in frame] for frame in frames])


def stereo_gate(frames, pairs, tol):
    """Stereo matching and epipolar gating one frame at a time on a raw
    stream of per-camera (ids, pixels), for pairs of (camera a, camera b,
    fundamental matrix), with each point-line distance from a plain matmul.
    Per frame: the set of ids that some pair's match fails (they leave
    every camera of that frame) and, per pair, the (ids, pixels in camera
    a, pixels in camera b) of its passing matches in id order."""
    out = []
    for frame in frames:
        failed, passing = set(), []
        for cam_a, cam_b, fm in pairs:
            (ids_a, uv_a), (ids_b, uv_b) = frame[cam_a], frame[cam_b]
            common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
            pa, pb = np.reshape(uv_a, (-1, 2))[ia], np.reshape(uv_b, (-1, 2))[ib]
            lines = np.column_stack([pa, np.ones(len(pa))]) @ fm.T
            dist = (np.abs(np.sum(lines * np.column_stack([pb, np.ones(len(pb))]), axis=1))
                    / np.hypot(lines[:, 0], lines[:, 1]))
            failed.update(common[dist > tol].tolist())
            passing.append((common[dist <= tol], pa[dist <= tol], pb[dist <= tol]))
        out.append((failed, passing))
    return out


def rc_fusion(locals_, body, cams):
    """The RC series of the chains' local poses (F, 4, 6) and their body
    poses (F, 4, 6), one frame at a time: the median of the body angles,
    its rotation, the scale system and its solve, a degenerate frame
    keeping the previous scales. Returns the poses (F, 6) and, per frame
    from 1 on, (scales, ill_conditioned, residual)."""
    x, prev, frames = np.zeros((len(locals_), 6)), np.ones(4), []
    for j in range(1, len(locals_)):
        angles = fusion.fuse_rotation_median(body[j, :, 3:])
        l = locals_[j, :, :3]
        a, b = fusion.build_scale_system(l[0], rot_from_angles(angles), l[1:], cams)
        try:
            scales, residual, _ = fusion.solve_scales(a, b, l[0])
        except IllConditioned:
            scales, residual = prev, None
        x[j] = np.concatenate([scales[0] * l[0], angles])
        frames.append((scales, residual is None, residual))
        prev = scales
    return x, frames


def axis_rotations(i: int, c, s) -> np.ndarray:
    """Stacked rotations (..., 3, 3) about axis i with cosines c and sines s
    (...,)."""
    j, k = [(1, 2), (2, 0), (0, 1)][i]
    m = np.zeros(np.shape(c) + (3, 3))
    m[..., i, i] = 1.0
    m[..., j, j] = m[..., k, k] = c
    m[..., j, k] = -s
    m[..., k, j] = s
    return m


def rotation_reference(angles) -> np.ndarray:
    """R = Rx(alpha) Ry(beta) Rz(gamma) of angles (..., 3), one axis at a time."""
    angles = np.asarray(angles, dtype=float)
    rx, ry, rz = (axis_rotations(i, np.cos(angles[..., i]), np.sin(angles[..., i]))
                  for i in range(3))
    return rx @ ry @ rz


def _pinhole_rows(p_cam, fx, fy, cx, cy):
    x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
    uv = np.empty(z.shape + (2,))
    uv[..., 0] = fx * x / z + cx
    uv[..., 1] = fy * y / z + cy
    return uv


def _pinhole_derivative_rows(p_cam, dp, fx, fy):
    """Pixel derivatives (N, 2, k) of points p_cam (N, 3) whose derivatives
    are dp (N, k, 3), one pixel row at a time."""
    z = p_cam[:, 2]
    out = np.empty((len(dp), 2, dp.shape[1]))
    out[:, 0] = (fx / z)[:, None] * (dp[..., 0] - (p_cam[:, 0] / z)[:, None] * dp[..., 2])
    out[:, 1] = (fy / z)[:, None] * (dp[..., 1] - (p_cam[:, 1] / z)[:, None] * dp[..., 2])
    return out


def view_points_reference(points, rot, d, cams, seg):
    """geometry.view_points with P_c = m_0 W[0, c] + m_1 W[1, c] + m_2 W[2, c]
    written out: (p_cam (N, 3), uv (M, 2), front (N,), W (S, 3, 3))."""
    center, orient = camera_placement(rot[cams.body], d[cams.body], cams)
    w = np.take(orient.T, seg, axis=-1)
    m = points.T - np.take(center.T, seg, axis=-1)
    p_cam = m[0] * w[:, 0] + m[1] * w[:, 1] + m[2] * w[:, 2]
    front = p_cam[2] > Z_MIN
    pinhole = np.take(cams.pinhole.T, seg[front], axis=-1)
    uv = _pinhole_rows(np.compress(front, p_cam, axis=-1).T, *pinhole)
    return p_cam.T, uv, front, orient


def back_project_reference(uv, rot, d, cams, seg):
    """geometry.back_project with ray_c = W[c, 0] r_0 + W[c, 1] r_1 + W[c, 2] r_2
    written out for the camera-frame ray r = ((u - cx)/fx, (v - cy)/fy, 1):
    (center (N, 3), ray (N, 3))."""
    center, orient = camera_placement(rot[cams.body], d[cams.body], cams)
    fx, fy, cx, cy = np.take(cams.pinhole.T, seg, axis=-1)
    r0, r1, r2 = (uv[:, 0] - cx) / fx, (uv[:, 1] - cy) / fy, np.ones(len(seg))
    w = np.take(orient, seg, axis=0)
    ray = np.empty((3, len(seg)))
    for c in range(3):
        ray[c] = w[:, c, 0] * r0 + w[:, c, 1] * r1 + w[:, c, 2] * r2
    return np.take(center.T, seg, axis=-1).T, ray.T


def pose_measurement_rows_reference(x, cams, seg, points):
    """ekf.pose_measurement_rows with each angle column dP/d(angle_i) =
    q x b_i written out term by term: q = P + R_k^T D_k and the axis b_i =
    R_k^T v_i for v_i = R^T a_i, that is row 0 of R, (sin gamma, cos gamma,
    0) and e_z, each camera's R_k^T v written out as sum_l v_l R_k[l, c]:
    (uv (M, 2), jac (M, 2, 6), front (N,))."""
    rot = rotation_reference(x[:, 3:6])
    p_cam, uv, front, orient = view_points_reference(points, rot, x[:, :3], cams, seg)
    sf = seg[front]
    gamma, rk = x[cams.body, 5], cams.R
    zero, one = np.zeros(len(gamma)), np.ones(len(gamma))
    vectors = [rot[cams.body, 0].T, (np.sin(gamma), np.cos(gamma), zero), (zero, zero, one),
               cams.D.T]
    # per camera, then gathered per point: [(R_k^T v)_0, (R_k^T v)_1, (R_k^T v)_2]
    b0, b1, b2, offset = ([np.take(v[0] * rk[:, 0, c] + v[1] * rk[:, 1, c] + v[2] * rk[:, 2, c],
                                   sf) for c in range(3)] for v in vectors)
    p = np.compress(front, p_cam.T, axis=-1)
    q0, q1, q2 = (p[c] + offset[c] for c in range(3))
    dp = np.empty((3, 6, len(sf)))
    dp[:, :3] = -np.take(orient.T, sf, axis=-1)
    for i, b in enumerate((b0, b1, b2)):
        dp[0, 3 + i] = q1 * b[2] - q2 * b[1]
        dp[1, 3 + i] = q2 * b[0] - q0 * b[2]
        dp[2, 3 + i] = q0 * b[1] - q1 * b[0]
    focal = np.take(cams.pinhole.T[:2], sf, axis=-1)
    return uv, _pinhole_derivative_rows(p.T, dp.T, *focal), front


def structure_update_reference(means, covs, observed_uv, x, cams, seg, r_var):
    """ekf.structure_update_batch with G = P J^T, S = J G + r I, the gain and
    the Joseph form written out term by term: (means (M, 3), covs (M, 3, 3),
    front (N,))."""
    rot = rotation_reference(x[:, 3:6])
    p_cam, predicted, front, orient = view_points_reference(means, rot, x[:, :3], cams, seg)
    sf = seg[front]
    p_front = np.compress(front, p_cam.T, axis=-1).T
    focal = np.take(cams.pinhole.T[:2], sf, axis=-1)
    j = _pinhole_derivative_rows(p_front, np.take(orient.T, sf, axis=-1).T, *focal)
    j0, j1 = j.T.swapaxes(0, 1)
    p = np.compress(front, covs.transpose(1, 2, 0), axis=-1)
    innovation = (observed_uv[front] - predicted).T
    g0 = p[:, 0] * j0[0] + p[:, 1] * j0[1] + p[:, 2] * j0[2]
    g1 = p[:, 0] * j1[0] + p[:, 1] * j1[1] + p[:, 2] * j1[2]
    s00 = j0[0] * g0[0] + j0[1] * g0[1] + j0[2] * g0[2] + r_var
    s01 = j0[0] * g1[0] + j0[1] * g1[1] + j0[2] * g1[2]
    s11 = j1[0] * g1[0] + j1[1] * g1[1] + j1[2] * g1[2] + r_var
    det = s00 * s11 - s01 * s01
    k0 = (g0 * s11 - g1 * s01) / det
    k1 = (g1 * s00 - g0 * s01) / det
    new_means = means[front] + (k0 * innovation[0] + k1 * innovation[1]).T
    a = -(k0[:, None] * j0 + k1[:, None] * j1)
    for i in range(3):
        a[i, i] += 1.0
    ap = a[:, :1] * p[0] + a[:, 1:2] * p[1] + a[:, 2:] * p[2]
    cov = (ap[:, None, 0] * a[:, 0] + ap[:, None, 1] * a[:, 1] + ap[:, None, 2] * a[:, 2]
           + r_var * (k0[:, None] * k0 + k1[:, None] * k1))
    return new_means, (0.5 * (cov + cov.transpose(1, 0, 2))).T, front


def trajectory_per_frame(cfg, rng) -> Trajectory:
    """simulate.gen_trajectory(cfg, rng) with the chained rotation decomposed
    into Euler angles frame by frame, inside the chaining loop."""
    f = cfg.n_frames
    t_mag = rng.uniform(cfg.trans_min, cfg.trans_max, (f - 1, 3))
    t_sign = rng.integers(0, 2, (f - 1, 3)) * 2 - 1
    r_mag = rng.uniform(cfg.rot_min, cfg.rot_max, (f - 1, 3))
    r_sign = rng.integers(0, 2, (f - 1, 3)) * 2 - 1
    deltas = np.hstack([t_mag * t_sign, r_mag * r_sign])
    x = np.zeros((f, 6))
    rotation = np.eye(3)
    steps = rotation_reference(deltas[:, 3:])
    for j in range(1, f):
        x[j, :3] = x[j - 1, :3] + deltas[j - 1, :3]
        rotation = steps[j - 1] @ rotation
        x[j, 3:] = euler_angles(rotation)
    return Trajectory(x)
