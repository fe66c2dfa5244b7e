"""The benchmark's tracer (perfbench/tracer.py) wraps rigpose functions by
module and name and reads their arguments and results. These checks keep
a rename or a changed return shape from breaking its per-layer pass."""

import importlib
import importlib.util
from pathlib import Path

from rigpose.geometry import default_nonoverlap_rig
from rigpose.harness import monte_carlo
from rigpose.pipeline import PipelineConfig
from rigpose.simulate import (
    SimConfig,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for mod, fn in tracer.TIMED + tracer.COUNTED:
        target = getattr(importlib.import_module(f"rigpose.{mod}"), fn, None)
        assert callable(target), f"rigpose.{mod}.{fn} is gone"


def test_tracer_hooks_read_results():
    tracer = load_tracer()
    names = {mod for mod, _ in tracer.TIMED + tracer.COUNTED}
    modules = {mod: importlib.import_module(f"rigpose.{mod}") for mod in names}
    sim = SimConfig(n_points=1500, n_frames=8, noise_sigma=0.5, n_runs=1, seed=42)
    with tracer.Tracer(modules, epipolar_tol_px=2.0) as t:
        t.start_pass(0)
        report = monte_carlo(sim, pipeline_cfg=PipelineConfig(redetect_threshold=15),
                             min_visible=15)
        counts = t.pass_summary()["counts"]
    assert report.metadata["valid_runs"] == 1
    for name in ("simulate.observations", "ekf.pose_update.rows",
                 "ekf.structure_update_batch.points", "stereo.triangulate_batch.attempted",
                 "stereo.epipolar_distances.pairs", "pipeline.ekf_steps",
                 "fusion.fuse_pose.calls", "geometry.rot_from_angles.calls"):
        assert counts[name] > 0, name
    # fusion.ill_conditioned_ratio divides by the fuse_pose calls: one per
    # frame after the first. The body mapping runs once per run.
    assert counts["fusion.fuse_pose.calls"] == sim.n_frames - 1
    assert counts["fusion.local_to_body_pose.calls"] == 1
    # The kernels that place cameras at a state mask depths themselves; a
    # caller that placed them again to build a mask would call this.
    assert counts["ekf.predicted_depths.calls"] == 0


def test_pose_update_rows_cover_every_chain_measurement():
    # Every measured row of the monocular chains goes through ekf.pose_update,
    # so the traced row count is twice the features the chains measured
    # from frame 2 on; a chain path that bypassed pose_update would fall short.
    tracer = load_tracer()
    names = {mod for mod, _ in tracer.TIMED + tracer.COUNTED}
    modules = {mod: importlib.import_module(f"rigpose.{mod}") for mod in names}
    rig = default_nonoverlap_rig()
    sim = SimConfig(n_points=1500, n_frames=8, noise_sigma=0.5, seed=42)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(sim.seed, 1)[0])
    frames = render_sequence(gen_scene(sim, scene_rng), gen_trajectory(sim, traj_rng),
                             rig.cameras, sim.noise_sigma, noise_ss)
    with tracer.Tracer(modules, epipolar_tol_px=2.0) as t:
        t.start_pass(0)
        out = modules["pipeline"].run_nonoverlap_sequence(
            frames, rig, pcfg=PipelineConfig(redetect_threshold=15))
        counts = t.pass_summary()["counts"]
    features = sum(d["features"] for k in range(1, 5) for d in out[f"cam{k}"].diagnostics[2:])
    assert features > 0
    assert counts["ekf.pose_update.rows"] == 2 * features
