"""Synthetic world, trajectory, and measurement generation.

The simulated scene is a spherical shell of point features centered on the
world origin; the rig starts at the origin looking along +z. Per-frame
motion deltas have per-component magnitudes drawn uniformly from a band
with independent random signs, composed by rotation-matrix chaining in the
world frame. Observations are exact pinhole projections of the points each
camera can see (positive depth, inside the image bounds) plus independent
zero-mean Gaussian pixel noise; each observation carries the scene point id
so the estimation pipelines get correspondence for free.

A sequence's observations are one Observations stream: flat id and pixel
columns, frame-major and camera-major within a frame, with each (frame,
camera) block's row bounds. The renderer fills it once for the union of
both rigs' cameras, slice_stream gathers one rig's blocks from it, with the
union's sorted distinct ids, and the tracks reader (pipeline.read_tracks)
builds it from a file's columns.

Randomness is fully deterministic given a master seed: each run draws its
scene, its trajectory and its pixel noise from three streams of its own,
derived by SeedSequence spawning, so Monte Carlo trials may execute in any
order or in parallel without changing a single bit of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InputError, check_config_fields
from .geometry import (
    Camera,
    CameraRig,
    CameraStack,
    camera_placement,
    euler_angles,
    rot_from_angles,
    view_points,
)


@dataclass
class SimConfig:
    """Simulation protocol parameters (full study-scale defaults)."""

    n_points: int = 10_000
    shell_inner: float = 0.667
    shell_outer: float = 1.0
    trans_min: float = 0.005        # m per frame, per component
    trans_max: float = 0.015
    rot_min: float = 0.005          # rad per frame, per component
    rot_max: float = 0.02
    noise_sigma: float = 0.5        # px
    n_frames: int = 100
    n_runs: int = 1500
    seed: int = 0

    def __post_init__(self):
        check_config_fields(self, "sim", at_least={"n_points": 0, "seed": 0})
        if not 0 < self.shell_inner < self.shell_outer:
            raise InputError("need 0 < shell_inner < shell_outer")
        if not 0 <= self.trans_min <= self.trans_max:
            raise InputError("need 0 <= trans_min <= trans_max")
        if not 0 <= self.rot_min <= self.rot_max:
            raise InputError("need 0 <= rot_min <= rot_max")
        if self.noise_sigma < 0:
            raise InputError("noise_sigma must be nonnegative")

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)


def gen_scene(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Scene points (n_points, 3): radius uniform in the shell band,
    direction uniform on the unit sphere. Row index doubles as feature id."""
    radii = rng.uniform(cfg.shell_inner, cfg.shell_outer, cfg.n_points)
    dirs = rng.normal(size=(cfg.n_points, 3))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms < 1e-12] = 1.0
    return radii[:, None] * dirs / norms[:, None]


@dataclass
class Trajectory:
    """A pose series x (F, 6): row j is frame j's pose (tx, ty, tz, alpha,
    beta, gamma)."""

    x: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def gen_trajectory(cfg: SimConfig, rng: np.random.Generator) -> Trajectory:
    """Random six-DOF walk: per frame each translation component has
    magnitude in [trans_min, trans_max] with a random sign (likewise the
    rotation angles), chained in the world frame."""
    f = cfg.n_frames
    t_mag = rng.uniform(cfg.trans_min, cfg.trans_max, (f - 1, 3))
    t_sign = rng.integers(0, 2, (f - 1, 3)) * 2 - 1
    r_mag = rng.uniform(cfg.rot_min, cfg.rot_max, (f - 1, 3))
    r_sign = rng.integers(0, 2, (f - 1, 3)) * 2 - 1
    deltas = np.hstack([t_mag * t_sign, r_mag * r_sign])

    x = np.zeros((f, 6))
    rotation = np.eye(3)
    rotations = rot_from_angles(deltas[:, 3:])   # the steps, chained in place
    for j in range(1, f):
        x[j, :3] = x[j - 1, :3] + deltas[j - 1, :3]
        rotation = rotations[j - 1] = rotations[j - 1] @ rotation
    x[1:, 3:] = euler_angles(rotations)
    return Trajectory(x)


class Observations:
    """A sequence's observations as flat columns: row i is feature ids[i] at
    pixel uv[i]. Rows are frame-major and camera-major within a frame;
    sizes[j, k] counts camera k's rows at frame j, and that (frame, camera)
    block is rows at[g]:at[g + 1] with g = j * n_cams + k. stream[j] is
    frame j as one (ids, uv) pair of views per camera.

    The constructor is the one check that no camera sees a feature id twice
    in a frame; every stream is built through it, where it comes in."""

    def __init__(self, ids, uv, sizes):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.uv = np.asarray(uv, dtype=float).reshape(-1, 2)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if self.sizes.ndim != 2 or not len(self.sizes) or np.any(self.sizes < 0) or not (
                len(self.ids) == len(self.uv) == self.sizes.sum()):
            raise InputError("a stream needs (frames >= 1, cameras) row counts that agree with "
                             "its ids and pixels")
        self.n_cams, self.at = self.sizes.shape[1], np.append(0, np.cumsum(self.sizes))
        repeat = repeated_rows(self.ids, self.at)
        if np.any(repeat):
            i = int(np.argmax(repeat))
            j, k = divmod(int(np.searchsorted(self.at, i, side="right")) - 1, self.n_cams)
            raise InputError(f"camera {k} sees feature {self.ids[i]} twice at frame {j}")

    def __len__(self) -> int:
        return len(self.sizes)

    @cached_property
    def distinct(self) -> np.ndarray:
        """The stream's distinct ids, ascending, which rank its ids by one
        search. Sorted once per stream; a slice_stream slice carries its
        union's, whose ranks keep the slice's ids in order."""
        distinct = np.sort(self.ids)   # np.unique would hash the ids: 5x slower than this sort
        return np.append(distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]])

    def __getitem__(self, j: int) -> list:
        """Frame j; iteration stops at the IndexError past the last frame."""
        g = range(len(self))[j] * self.n_cams
        at = self.at[g:g + self.n_cams + 1]
        return [(self.ids[lo:hi], self.uv[lo:hi]) for lo, hi in zip(at[:-1], at[1:])]


def repeated_rows(ids: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Mask of the rows whose id an earlier row of the same block
    at[g]:at[g + 1] holds. Blocks whose ids ascend, as rendered or written
    by the simulator, pass in one comparison; only otherwise are the rows
    sorted by (block, id)."""
    down = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    if np.all(np.isin(down, at)):
        return np.zeros(len(ids), dtype=bool)
    block = np.repeat(np.arange(len(at) - 1), np.diff(at))
    order = np.lexsort((ids, block))   # stable: equal (block, id) rows in row order
    ids, block, repeat = ids[order], block[order], np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = (ids[1:] == ids[:-1]) & (block[1:] == block[:-1])
    return repeat


def _frustum_rows(intr) -> np.ndarray:
    """Rows f (4, 3) with f @ P >= 0 for every camera-frame point P in front
    of the camera whose pixel lies in [-1, width + 1) x [-1, height + 1):
    the four pixel bounds multiplied through by the depth."""
    return np.array([[intr.fx, 0.0, intr.cx + 1.0], [-intr.fx, 0.0, intr.width - intr.cx + 1.0],
                     [0.0, intr.fy, intr.cy + 1.0], [0.0, -intr.fy, intr.height - intr.cy + 1.0]])


# Candidate (camera, point) rows per exact projection pass: the renderer cuts
# its frames into blocks of at most this many rows (a frame with more is a
# block alone), so the pass's temporaries stay bounded at any scene size.
BLOCK_ROWS = 1 << 12


def render_sequence(
    scene: np.ndarray,
    traj: Trajectory,
    cameras: list[Camera],
    noise_sigma: float,
    noise_seed: np.random.SeedSequence | None = None,
) -> Observations:
    """Render every camera at every frame of a trajectory.

    A point is visible when its depth exceeds Z_MIN and its exact projection
    (geometry.view_points) lands inside the image. Each frame is culled once
    for every camera at once: one float32 product of the cameras' frustum
    rows with the transposed scene, tested with a one-pixel margin and a
    slack that is 30 times the product's worst rounding, keeps a superset of
    the visible points as flat (frame, camera, point) indices. Consecutive
    frames gather into blocks of at most BLOCK_ROWS candidates, and each
    block's candidates go through the exact kernel and the exact test, so
    the output is the same, bit for bit, as projecting every point. One
    camera stack, with a segment per (frame, camera), places the cull and
    every exact pass.

    Noise is added after the visibility test from one generator seeded by
    noise_seed (seed 0 when None), in one (N, 2) draw for the N visible
    rows, frame-major, camera-major within a frame, with ascending ids per
    camera: the bits of one draw per frame in that order. Each block's
    pixels are added into the draw, which becomes the pixel column, so no
    second column-sized array is made and freed.
    """
    n_frames, n_cams, n_points = len(traj), len(cameras), len(scene)
    rng = np.random.default_rng(0 if noise_seed is None else noise_seed)

    # segment j * n_cams + k of the stack is camera k at frame j
    rotations, d = rot_from_angles(traj.x[:, 3:]), traj.x[:, :3]
    stack = CameraStack.of(cameras * n_frames, np.arange(n_frames).repeat(n_cams))
    size = np.tile([[c.intrinsics.width, c.intrinsics.height] for c in cameras], (n_frames, 1))
    frustum = np.tile([_frustum_rows(c.intrinsics) for c in cameras], (n_frames, 1, 1))
    centers, orients = camera_placement(rotations[stack.body], d[stack.body], stack)
    rows = frustum @ np.swapaxes(orients, -1, -2)
    # For a world row f, point M and camera center C, the float32 cull errs by
    # at most 5u |f|_1 |M| + u |f|_1 |C| (u = 2^-24; inputs, product and
    # bound rounded), under 3.2e-7 |f|_1 (|M| + |C|).
    reach = np.linalg.norm(scene, axis=1).max(initial=0.0)
    slack = 1e-5 * np.abs(rows).sum(axis=-1) * (reach + np.linalg.norm(centers, axis=-1))[..., None]
    bounds = ((rows @ centers[..., None])[..., 0] - slack).astype(np.float32)
    rows = rows.astype(np.float32).reshape(n_frames, n_cams * 4, 3)
    bounds = bounds.reshape(n_frames, n_cams * 4, 1)
    scene_t = np.ascontiguousarray(scene.T, dtype=np.float32)
    dots = np.empty((n_cams * 4, n_points), dtype=np.float32)
    inside = np.empty(dots.shape, dtype=bool)

    ids, uv, sizes = [], [], np.zeros(len(stack.body), dtype=np.int64)

    def exact(block):
        """The exact pass over a block's candidates, keyed by (segment,
        point), and the visibility test."""
        seg, pts = np.divmod(np.concatenate(block), n_points)
        _, pix, front, _, (seg, *_) = view_points(scene[pts], rotations, d, stack, seg)
        visible = ((pix >= 0) & (pix < size[seg])).all(axis=1)
        sizes[:] += np.bincount(seg[visible], minlength=len(sizes))
        ids.append(pts[front][visible])
        uv.append(pix[visible])

    block = []
    for j in range(n_frames):
        np.matmul(rows[j], scene_t, out=dots)
        np.greater_equal(dots, bounds[j], out=inside)
        flat = np.flatnonzero(inside.reshape(n_cams, 4, -1).all(axis=1))
        if block and sum(map(len, block)) + len(flat) > BLOCK_ROWS:
            exact(block)
            block = []
        # (frame, camera, point), camera-major with ascending ids
        block.append(flat + j * n_cams * n_points)
    exact(block)
    ids = np.concatenate(ids)
    if noise_sigma > 0:
        noise = rng.normal(0.0, noise_sigma, (len(ids), 2))
        for part, piece in zip(np.split(noise, np.cumsum([len(p) for p in uv])[:-1]), uv):
            part += piece
        uv = noise
    else:
        uv = np.concatenate(uv)
    return Observations(ids, uv, sizes.reshape(n_frames, n_cams))


def slice_stream(stream: Observations, camera_map: list[int]) -> Observations:
    """Restrict a rendered union stream to one rig's cameras, renumbering
    them to local indices 0..len(camera_map)-1: one gather of the (frame,
    camera) blocks in the map's order, which need not ascend (the
    overlapping rig's is [0, 4, 2, 5]), so no mask of the rows would do.
    The slice carries the stream's sorted distinct ids, so a run sorts its
    ids once."""
    sizes = stream.sizes[:, camera_map]
    starts = stream.at[:-1].reshape(stream.sizes.shape)[:, camera_map]
    # row r of the slice, in block g at offset o, is stream row starts[g] + o
    offsets = np.cumsum(sizes).reshape(sizes.shape) - sizes
    rows = np.repeat(starts - offsets, sizes.ravel()) + np.arange(sizes.sum())
    out = Observations(stream.ids[rows], stream.uv.take(rows, axis=0), sizes)
    out.distinct = stream.distinct
    return out


def visible_counts(stream: Observations, frame: int = 0) -> list[int]:
    return stream.sizes[frame].tolist()


def build_union(rigs: list[CameraRig]) -> tuple[list[Camera], list[list[int]]]:
    """Merge several rigs into one camera list, sharing cameras that have
    identical placement and intrinsics so they render (and draw noise) once.

    Returns the union list and, per rig, the union index of each camera.
    """
    union: list[Camera] = []
    maps: list[list[int]] = []
    for rig in rigs:
        maps.append([])
        for cam in rig.cameras:
            same = [u for u, c in enumerate(union) if np.array_equal(c.D, cam.D)
                    and np.array_equal(c.R, cam.R) and c.intrinsics == cam.intrinsics]
            if not same:
                union.append(cam)
            maps[-1].append(same[0] if same else len(union) - 1)
    return union, maps


def run_seed_sequences(seed: int, n_runs: int) -> list[np.random.SeedSequence]:
    """One independent seed sequence per Monte Carlo run."""
    return np.random.SeedSequence(seed).spawn(n_runs)


def run_streams(run_seed: np.random.SeedSequence):
    """Per-run generator triple: (scene rng, trajectory rng, noise seed)."""
    scene_ss, traj_ss, noise_ss = run_seed.spawn(3)
    return np.random.default_rng(scene_ss), np.random.default_rng(traj_ss), noise_ss
