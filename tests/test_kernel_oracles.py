"""The reduce-form kernels against their written-out forms, bit for bit.

Every sum over a component axis in the placement, back-projection,
measurement and structure kernels is one broadcast product and one axis
sum; the
references in reference.py add the same terms one by one. Bits are
compared as bytes, so a -0.0 where the written-out form gives -0.0 counts,
and the outputs must come in the references' memory layout.
"""

import numpy as np
import pytest

from reference import (
    back_project_reference,
    pose_measurement_rows_reference,
    rotation_reference,
    structure_update_reference,
    trajectory_per_frame,
    view_points_reference,
)
from rigpose.ekf import (
    FilterTuning,
    initial_structure_covariance,
    make_pose_filter,
    measure,
    pose_measurement_rows,
    pose_update,
    structure_update_batch,
)
from rigpose.geometry import (
    Z_MIN,
    Camera,
    CameraStack,
    back_project,
    default_nonoverlap_rig,
    default_overlap_rig,
    rot_from_angles,
    view_points,
)
from rigpose.simulate import SimConfig, gen_trajectory

# angles on both sides of +-pi, and exactly on it
NEAR_PI = np.array([np.pi, -np.pi, np.nextafter(np.pi, 0.0), -np.nextafter(np.pi, 0.0),
                    np.pi - 1e-9, -np.pi + 1e-9, np.pi + 1e-3, -np.pi - 1e-3])


def assert_same_bits(a, b):
    """Equal bytes in the same memory layout: the pose update's matmuls take
    a filter's rows by reshape, and a strided row goes another way than a
    contiguous one, to other bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.strides == b.strides
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def stereo():
    """One filter with a segment per camera of the overlapping rig."""
    return CameraStack.of(default_overlap_rig().cameras, [0, 0, 0, 0]), 1


def chains():
    """Four filters, each with one camera at its body's origin."""
    return CameraStack.of([Camera(np.zeros(3), np.eye(3), c.intrinsics)
                           for c in default_nonoverlap_rig().cameras], [0, 1, 2, 3]), 4


def mixed():
    """The four chains' cameras and a stereo filter of four segments."""
    cameras = default_nonoverlap_rig().cameras + default_overlap_rig().cameras
    return CameraStack.of(cameras, [0, 1, 2, 3, 4, 4, 4, 4]), 5


def kernel_inputs(cams, n_filters, n, rng):
    """States straddling +-pi on some filters, and n points grouped by
    segment: mostly in front of their camera, some behind it, some at its
    image plane and some at its center, with full covariances."""
    x = np.zeros((n_filters, 12))
    x[:, :6] = rng.uniform(-0.05, 0.05, (n_filters, 6))
    x[::2, 3:6] = rng.choice(NEAR_PI, (len(x[::2]), 3))
    seg = np.sort(rng.integers(0, len(cams.body), n))
    local = np.column_stack([rng.uniform(-0.3, 0.3, (n, 2)), rng.uniform(0.4, 2.0, n)])
    kind = rng.integers(0, 8, n)
    local[kind == 0, 2] *= -1.0          # behind
    local[kind == 1, 2] = Z_MIN          # on the depth bound
    local[kind == 2, 2] = 0.0            # on the image plane
    pose = x[cams.body[seg], :6]
    rot = rot_from_angles(pose[:, 3:])
    center = pose[:, :3] + (rot @ cams.D[seg][..., None])[..., 0]
    orient = rot @ cams.R[seg]
    points = center + (orient @ local[..., None])[..., 0]
    at_center = kind == 3
    points[at_center] = center[at_center]
    uv = np.column_stack([rng.uniform(0, 640, n), rng.uniform(0, 480, n)])
    spread = rng.normal(0.0, 0.1, (n, 3, 3))
    covs = initial_structure_covariance(FilterTuning(), n) + spread @ spread.transpose(0, 2, 1)
    return x, seg, points, uv, covs


STACKS = {"stereo": stereo, "chains": chains, "mixed": mixed}


@pytest.mark.parametrize("n", [0, 1, 7, 2000])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_reduce_kernels_have_the_written_out_bits(stack, n):
    cams, n_filters = STACKS[stack]()
    x, seg, points, uv, covs = kernel_inputs(cams, n_filters, n,
                                             np.random.default_rng([ord(stack[0]), n]))
    for got, want in zip(view_points(points, rot_from_angles(x[:, 3:6]), x[:, :3], cams, seg),
                         view_points_reference(points, rotation_reference(x[:, 3:6]), x[:, :3],
                                               cams, seg)):
        assert_same_bits(got, want)
    for got, want in zip(pose_measurement_rows(x, cams, seg, points),
                         pose_measurement_rows_reference(x, cams, seg, points)):
        assert_same_bits(got, want)
    for got, want in zip(structure_update_batch(points, covs, uv, x, cams, seg, 0.25),
                         structure_update_reference(points, covs, uv, x, cams, seg, 0.25)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("n", [0, 1, 7, 2000])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_back_project_has_the_written_out_bits(stack, n):
    # n = 0: a frame without stereo matches still triangulates, empty.
    cams, n_filters = STACKS[stack]()
    x, seg, _, uv, _ = kernel_inputs(cams, n_filters, n,
                                     np.random.default_rng([ord(stack[0]), n, 2]))
    got = back_project(uv, rot_from_angles(x[:, 3:6]), x[:, :3], cams, seg)
    want = back_project_reference(uv, rotation_reference(x[:, 3:6]), x[:, :3], cams, seg)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.shape == (n, 3)
        assert_same_bits(g, w)


def test_reduce_kernels_keep_a_negative_zero():
    # A point at a camera's center, with -0.0 coordinates and the body at the
    # identity: each written-out camera coordinate adds three -0.0 terms.
    cams, _ = chains()
    x, seg = np.zeros((4, 12)), np.arange(4)
    points = np.full((4, 3), -0.0)
    got = view_points(points, rot_from_angles(x[:, 3:6]), x[:, :3], cams, seg)[0]
    want = view_points_reference(points, rotation_reference(x[:, 3:6]), x[:, :3], cams, seg)[0]
    assert np.signbit(want).any()
    assert_same_bits(got, want)


def _layouts(a):
    """a in C order, in Fortran order, as the transpose of a transposed copy,
    and as every other column of a twice-as-wide array: equal values in
    other memory layouts."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    axes = tuple(range(a.ndim))[::-1]
    return {"C": a, "F": np.asfortranarray(a),
            "T": np.ascontiguousarray(a.transpose(axes)).transpose(axes), "strided": wide[..., ::2]}


@pytest.mark.parametrize("n", [2, 3, 7, 40])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_pose_update_has_the_c_order_bits_in_any_layout(stack, n):
    # A filter's rows are a reshape of its slice of the batch: a strided jac
    # or innovation would leave BLAS for NumPy's own matmul loop, whose
    # J^T J and J^T innovation sums come out in other bits.
    cams, n_filters = STACKS[stack]()
    x, seg, points, uv, _ = kernel_inputs(cams, n_filters, n,
                                          np.random.default_rng([ord(stack[0]), n, 1]))
    batch = measure(x, cams, np.arange(n), uv, seg, points)
    assert len(batch.ids) > 0 and batch.jac.flags.c_contiguous
    state = make_pose_filter(x[:, :6], x[:, 6:], FilterTuning())
    want, want_skipped = pose_update(state, batch, cams)
    jacs, innovations = _layouts(batch.jac), _layouts(batch.innovation)
    for layout in jacs:
        batch.jac, batch.innovation = jacs[layout], innovations[layout]
        got, skipped = pose_update(state, batch, cams)
        np.testing.assert_array_equal(skipped, want_skipped)
        assert_same_bits(got.x, want.x)
        assert_same_bits(got.P, want.P)


@pytest.mark.parametrize("n", [0, 1, 7, 2000])
def test_stacked_axis_rotations_have_the_per_axis_bits(n):
    rng = np.random.default_rng(n)
    angles = rng.uniform(-4.0, 4.0, (n, 3))
    angles[::3] = rng.choice(NEAR_PI, (len(angles[::3]), 3))
    for a in (angles, angles[0] if n else NEAR_PI[:3]):
        assert_same_bits(rot_from_angles(a), rotation_reference(a))


@pytest.mark.parametrize("n_frames", [1, 2, 100])
def test_one_euler_decomposition_per_trajectory_has_the_per_frame_bits(n_frames):
    for seed in range(20):
        cfg = SimConfig(n_points=10, n_frames=n_frames, seed=seed)
        got = gen_trajectory(cfg, np.random.default_rng(seed)).x
        want = trajectory_per_frame(cfg, np.random.default_rng(seed)).x
        assert_same_bits(got, want)
        assert not np.signbit(got[0]).any() and not got[0].any()
    still = SimConfig(n_points=10, n_frames=20, rot_min=0.0, rot_max=0.0, trans_min=0.0,
                      trans_max=0.0)
    assert_same_bits(gen_trajectory(still, np.random.default_rng(1)).x,
                     trajectory_per_frame(still, np.random.default_rng(1)).x)
