"""Monte Carlo experiment driver and the comparative error report.

Each run draws one scene and one trajectory, renders the union of both
rigs' cameras once (shared cameras render once, so every method sees the
same pixels), and executes all requested estimators:

    4cameras  - both stereo pairs feeding one pose EKF
    2cameras  - the front stereo pair alone
    cam1..4   - each non-overlapping camera on its own
    RC        - the rigidity-constrained fusion of the four

The report holds the per-method mean absolute error of the six pose
parameters averaged over frames and runs. Runs that abort (too few
features, non-finite filter state, low visibility) invalidate only
themselves and are listed in the metadata. Aggregation is a reduction in
run-index order over per-run results, so any worker count produces a
byte-identical CSV.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ekf import FilterTuning
from .errors import (InputError, RigPoseError, build_block, check_number, json_object,
                     open_path, read_json)
from .geometry import (
    CameraRig,
    default_nonoverlap_rig,
    default_overlap_rig,
    rig_from_dict,
    rig_to_dict,
)
from .pipeline import (
    MIN_MATCHES,
    PipelineConfig,
    pose_error_report,
    run_nonoverlap_sequence,
    run_stereo_sequence,
)
from .simulate import (
    SimConfig,
    build_union,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
    slice_stream,
    visible_counts,
)

ALL_METHODS = ["4cameras", "2cameras", "cam1", "cam2", "cam3", "cam4", "RC"]
PARAM_NAMES = ["tx", "ty", "tz", "alpha", "beta", "gamma"]
# Fewest points every camera must see at frame 0 for a run to count.
MIN_VISIBLE = 100


@dataclass
class ExperimentSetup:
    """Everything one Monte Carlo run needs (picklable for worker pools)."""

    sim: SimConfig
    rig_overlap: CameraRig
    rig_nonoverlap: CameraRig
    tuning: FilterTuning = field(default_factory=FilterTuning)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    methods: tuple = tuple(ALL_METHODS)
    min_visible: int = MIN_VISIBLE
    ideal_init: bool = False
    # Built once from the rigs, after their layout checks: the front pair's
    # rig (2cameras), the union of both rigs' cameras that each run renders,
    # and each rig's union indices (non-overlapping, overlapping).
    rig_front: CameraRig = field(init=False)
    union: list = field(init=False)
    maps: list = field(init=False)

    def __post_init__(self):
        self.rig_overlap.check_layout("overlapping")
        self.rig_nonoverlap.check_layout("non-overlapping")
        self.rig_front = CameraRig(self.rig_overlap.cameras[:2], layout="overlapping")
        self.union, self.maps = build_union([self.rig_nonoverlap, self.rig_overlap])


@dataclass
class ExperimentReport:
    """Per-method mean absolute pose errors plus run metadata."""

    methods: list[str]
    rows: dict[str, np.ndarray]
    metadata: dict

    def to_csv_text(self) -> str:
        lines = ["method," + ",".join(PARAM_NAMES)]
        for method in self.methods:
            row = self.rows[method]
            lines.append(method + "," + ",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open_path(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def write_json(self, path) -> None:
        payload = {
            "rows": {m: [float(x) for x in self.rows[m]] for m in self.methods},
            "columns": PARAM_NAMES,
            "metadata": self.metadata,
        }
        with open_path(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _run_one(args):
    """Execute every requested method for one run; returns
    (run_index, rows dict | None, error message | None)."""
    index, seed_seq, setup = args
    sim = setup.sim
    try:
        scene_rng, traj_rng, noise_ss = run_streams(seed_seq)
        scene = gen_scene(sim, scene_rng)
        traj = gen_trajectory(sim, traj_rng)
        map_non, map_over = setup.maps
        obs = render_sequence(scene, traj, setup.union, sim.noise_sigma, noise_ss)
        counts = visible_counts(obs, frame=0)
        if min(counts) < setup.min_visible:
            return index, None, f"visibility {min(counts)} < {setup.min_visible} at frame 0"

        rows: dict[str, np.ndarray] = {}
        methods = set(setup.methods)
        # With ideal_init, the truth seeds the filters and the scene the
        # chains' structure.
        common = dict(tuning=setup.tuning, pcfg=setup.pipeline,
                      truth=traj if setup.ideal_init else None)
        for name, rig, cam_map in (("4cameras", setup.rig_overlap, map_over),
                                   ("2cameras", setup.rig_front, map_over[:2])):
            if name in methods:
                series = run_stereo_sequence(slice_stream(obs, cam_map), rig, **common)
                rows[name] = pose_error_report(series, traj)
        if methods & {"cam1", "cam2", "cam3", "cam4", "RC"}:
            non = run_nonoverlap_sequence(
                slice_stream(obs, map_non), setup.rig_nonoverlap,
                scene=scene if setup.ideal_init else None, **common,
            )
            for name, series in non.items():
                if name in methods:
                    rows[name] = pose_error_report(series, traj)
        return index, rows, None
    except RigPoseError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def monte_carlo(
    sim: SimConfig,
    rig_overlap: CameraRig | None = None,
    rig_nonoverlap: CameraRig | None = None,
    tuning: FilterTuning | None = None,
    pipeline_cfg: PipelineConfig | None = None,
    methods=None,
    workers: int = 1,
    min_visible: int = MIN_VISIBLE,
    ideal_init: bool = False,
) -> ExperimentReport:
    """Run the comparative study and average the error rows over runs.

    Deterministic for a given seed at any worker count: every run derives
    its own random streams from the master seed and the reduction happens
    in run-index order, the order in which the serial loop and pool.map
    both return the outcomes.
    """
    methods = tuple(ALL_METHODS if methods is None else methods)
    if not methods:
        raise InputError(f"no method selected; choose from {ALL_METHODS}")
    for i, m in enumerate(methods):
        if m not in ALL_METHODS:
            raise InputError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        if m in methods[:i]:
            raise InputError(f"method {m!r} is listed more than once")
    if sim.n_points < 1:
        raise InputError(f"need at least 1 scene point, got {sim.n_points}")
    if sim.n_runs < 1:
        raise InputError(f"need at least 1 run, got {sim.n_runs}")
    if sim.n_frames < 2:
        raise InputError(f"need at least 2 frames to report errors, got {sim.n_frames}")
    check_number("workers", workers, "int", at_least=1)
    check_number("min_visible", min_visible, "int", at_least=0)
    setup = ExperimentSetup(
        sim=sim,
        rig_overlap=rig_overlap or default_overlap_rig(),
        rig_nonoverlap=rig_nonoverlap or default_nonoverlap_rig(),
        tuning=tuning or FilterTuning(),
        pipeline=pipeline_cfg or PipelineConfig(),
        methods=methods,
        min_visible=min_visible,
        ideal_init=ideal_init,
    )

    started = time.monotonic()
    seeds = run_seed_sequences(sim.seed, sim.n_runs)
    tasks = [(i, seeds[i], setup) for i in range(sim.n_runs)]
    if workers == 1:
        outcomes = [_run_one(t) for t in tasks]
    else:
        # Imported here, as it weighs on every import of the package. A fork
        # pool starts all its workers at once: no more workers than runs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, sim.n_runs)) as pool:
            outcomes = list(pool.map(_run_one, tasks))

    sums = {m: np.zeros(6) for m in setup.methods}
    n_ok = 0
    failures = []
    for index, rows, err in outcomes:
        if rows is None:
            failures.append({"run": index, "reason": err})
            continue
        for m in setup.methods:
            sums[m] += rows[m]
        n_ok += 1
    if n_ok == 0:
        raise RigPoseError(f"all {sim.n_runs} runs failed; first: {failures[0]['reason']}")

    rows = {m: sums[m] / n_ok for m in setup.methods}
    metadata = {
        "config_hash": setup_hash(setup),
        "seed": sim.seed,
        "runs": sim.n_runs,
        "valid_runs": n_ok,
        "frames": sim.n_frames,
        "n_points": sim.n_points,
        "noise_sigma": sim.noise_sigma,
        "failed_runs": failures,
        "workers": workers,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    return ExperimentReport(methods=list(setup.methods), rows=rows, metadata=metadata)


def setup_hash(setup: ExperimentSetup) -> str:
    """The first 16 hex digits of the SHA-256 of the setup's init fields as
    sorted JSON: a rig as its rig file's object, a config as its fields."""
    payload = {f.name: getattr(setup, f.name) for f in fields(setup) if f.init}
    # A config_hash names one setup across versions, so the payload keeps
    # the fixed minimum under the key it had as a pipeline setting.
    payload["pipeline"] = {**asdict(setup.pipeline), "min_matches": MIN_MATCHES}
    # Imported here, as it weighs on every import of the package, and
    # run-tracks never hashes a setup.
    import hashlib

    blob = json.dumps(payload, sort_keys=True, default=lambda value: (
        rig_to_dict(value) if hasattr(value, "cameras") else asdict(value)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Harness config file
# ---------------------------------------------------------------------------

def config_from_dict(data, source: str) -> dict:
    """monte_carlo's keyword arguments for the blocks a mapping holds, all
    optional: "sim", "rigs" {"overlapping", "non-overlapping"}, "tuning",
    "pipeline" and "min_visible". Each block given is built and checked
    under the argument it fills (sim, rig_overlap, rig_nonoverlap, tuning,
    pipeline_cfg, min_visible); an absent one is left out, so it takes its
    default where it is used. Errors name the source of the mapping."""
    data = json_object(data, source, ("sim", "rigs", "tuning", "pipeline", "min_visible"))
    rigs = json_object(data.get("rigs", {}), f"{source}: rigs", ("overlapping", "non-overlapping"))
    cfg = {}
    if "min_visible" in data:
        cfg["min_visible"] = data["min_visible"]
        check_number("min_visible", cfg["min_visible"], "int", at_least=0)
    for key, arg in (("overlapping", "rig_overlap"), ("non-overlapping", "rig_nonoverlap")):
        if key in rigs:
            cfg[arg] = rig_from_dict(rigs[key], source=f"{source}: rigs.{key}")
    for key, arg, cls in (("sim", "sim", SimConfig), ("tuning", "tuning", FilterTuning),
                          ("pipeline", "pipeline_cfg", PipelineConfig)):
        if key in data:
            cfg[arg] = build_block(cls, data[key], f"{source}: {key}")
    return cfg


def load_config(path) -> dict:
    """Load a JSON harness config file: config_from_dict of its content."""
    return config_from_dict(read_json(path), path)
