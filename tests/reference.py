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
that builds every frame's median and system at once.
"""

import numpy as np

from rigpose import fusion
from rigpose.errors import IllConditioned
from rigpose.geometry import rot_from_angles
from rigpose.simulate import Trajectory


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


def stereo_gate(frames, pairs, tol):
    """Stereo matching and epipolar gating one frame at a time on a raw
    stream of per-camera (ids, pixels), with each point-line distance from
    a plain matmul. Per frame: the set of ids that some pair's match fails
    (they leave every camera of that frame) and, per pair, the (ids, pixels
    in camera a, pixels in camera b) of its passing matches in id order."""
    out = []
    for frame in frames:
        failed, passing = set(), []
        for pair in pairs:
            (ids_a, uv_a), (ids_b, uv_b) = frame[pair.cam_a], frame[pair.cam_b]
            common, ia, ib = np.intersect1d(ids_a, ids_b, return_indices=True)
            pa, pb = np.reshape(uv_a, (-1, 2))[ia], np.reshape(uv_b, (-1, 2))[ib]
            lines = np.column_stack([pa, np.ones(len(pa))]) @ pair.F.T
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
