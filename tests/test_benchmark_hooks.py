"""The benchmark's tracer (perfbench/tracer.py) wraps rigpose functions by
module and name and reads their arguments and results. These checks keep
a rename or a changed return shape from breaking its per-layer pass."""

import importlib
import importlib.util
from pathlib import Path

from rigpose.harness import monte_carlo
from rigpose.pipeline import PipelineConfig
from rigpose.simulate import SimConfig

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
