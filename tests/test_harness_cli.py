import json

import numpy as np
import pytest

from rigpose import cli, harness, pipeline
from rigpose.errors import InputError
from rigpose.geometry import default_nonoverlap_rig, default_overlap_rig, rig_to_dict, write_rig
from rigpose.pipeline import PipelineConfig, write_tracks, write_truth
from rigpose.simulate import (
    SimConfig,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
)

TINY = dict(n_points=1500, n_frames=20, noise_sigma=0.5, n_runs=3, seed=42)
PCFG = PipelineConfig(redetect_threshold=15)


def tiny_report(workers=1, seed=42, methods=None):
    sim = SimConfig(**{**TINY, "seed": seed})
    return harness.monte_carlo(
        sim, pipeline_cfg=PCFG, methods=methods, workers=workers, min_visible=15
    )


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_same_seed_identical_reports():
    a = tiny_report()
    b = tiny_report()
    assert a.to_csv_text() == b.to_csv_text()


def test_monte_carlo_pool_has_no_more_workers_than_runs(monkeypatch):
    # A fork pool starts every worker up front, so monte_carlo asks for no
    # more workers than runs. A serial stand-in for the pool records the
    # request; no process is started.
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    sim = SimConfig(**{**TINY, "n_runs": 2})
    capped = harness.monte_carlo(sim, pipeline_cfg=PCFG, workers=8, min_visible=15)
    serial = harness.monte_carlo(sim, pipeline_cfg=PCFG, workers=1, min_visible=15)
    assert asked == [2]
    assert capped.to_csv_text() == serial.to_csv_text()


def test_monte_carlo_parallel_matches_serial_byte_for_byte():
    serial = tiny_report(workers=1)
    parallel = tiny_report(workers=3)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_monte_carlo_noiseless_ideal_init_all_methods_tight():
    sim = SimConfig(n_points=3000, n_frames=60, noise_sigma=0.0, n_runs=1, seed=5)
    report = harness.monte_carlo(
        sim, pipeline_cfg=PipelineConfig(redetect_threshold=20),
        workers=1, min_visible=20, ideal_init=True,
    )
    # oracle-computed noiseless bound (EKF linearization lag; see ledger)
    for method in ("4cameras", "2cameras", "cam1", "cam2", "cam3", "cam4"):
        assert np.all(report.rows[method] < 2e-2), method
    assert np.all(report.rows["4cameras"] < 1e-3)


def test_monte_carlo_methods_subset():
    report = tiny_report(methods=["4cameras", "cam1"])
    assert report.methods == ["4cameras", "cam1"]
    assert set(report.rows) == {"4cameras", "cam1"}


def test_monte_carlo_rejects_unknown_method():
    with pytest.raises(InputError):
        tiny_report(methods=["5cameras"])


def test_monte_carlo_flags_low_visibility_runs():
    # An unreachable visibility floor invalidates every run, which is an
    # error rather than a silently empty report.
    sim = SimConfig(**TINY)
    with pytest.raises(Exception, match="runs failed"):
        harness.monte_carlo(sim, pipeline_cfg=PCFG, workers=1, min_visible=10_000)


def test_monte_carlo_metadata_tracks_valid_runs():
    report = tiny_report()
    assert report.metadata["valid_runs"] == 3
    assert report.metadata["failed_runs"] == []


def test_report_csv_roundtrip_exact(tmp_path):
    report = tiny_report()
    path = tmp_path / "report.csv"
    report.write_csv(path)
    header, *lines = path.read_text().splitlines()
    assert header == "method," + ",".join(harness.PARAM_NAMES)
    rows = {f[0]: np.array([float(x) for x in f[1:]]) for f in (ln.split(",") for ln in lines)}
    assert list(rows) == report.methods
    for method in report.methods:
        np.testing.assert_array_equal(rows[method], report.rows[method])


def test_report_json_contains_metadata(tmp_path):
    report = tiny_report()
    path = tmp_path / "report.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["metadata"]["seed"] == 42
    assert payload["metadata"]["runs"] == 3
    assert set(payload["rows"]) == set(report.methods)
    assert "config_hash" in payload["metadata"]


def test_setup_hash_changes_with_config():
    sim_a = SimConfig(**TINY)
    sim_b = SimConfig(**{**TINY, "seed": 43})
    setup_a = harness.ExperimentSetup(
        sim=sim_a, rig_overlap=default_overlap_rig(), rig_nonoverlap=default_nonoverlap_rig()
    )
    setup_b = harness.ExperimentSetup(
        sim=sim_b, rig_overlap=default_overlap_rig(), rig_nonoverlap=default_nonoverlap_rig()
    )
    assert harness.setup_hash(setup_a) != harness.setup_hash(setup_b)
    assert harness.setup_hash(setup_a) == harness.setup_hash(setup_a)


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sim": {"n_points": 777, "seed": 9},
        "tuning": {"r_px": 0.7},
        "pipeline": {"redetect_threshold": 33},
        "min_visible": 12,
    }))
    cfg = harness.load_config(path)
    assert cfg["sim"].n_points == 777
    assert cfg["tuning"].r_px == 0.7
    assert cfg["pipeline"].redetect_threshold == 33
    assert cfg["min_visible"] == 12
    assert cfg["rig_overlap"].layout == "overlapping"


def test_load_config_rejects_unknown_blocks(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"simulation": {}}')
    with pytest.raises(InputError):
        harness.load_config(path)


def test_load_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"sim": {"points": 10}}')
    with pytest.raises(InputError):
        harness.load_config(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sim": TINY,
        "pipeline": {"redetect_threshold": 15},
        "min_visible": 15,
    }))
    return path


def test_cli_simulate_deterministic_output(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_cli_simulate_workers_flag_identical(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_a), "--workers", "1"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_b), "--workers", "3"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    capsys.readouterr()


def test_cli_simulate_flag_overrides(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "r.csv"
    code = cli.main([
        "simulate", "--config", str(cfg), "--runs", "2", "--frames", "15",
        "--seed", "7", "--out", str(out), "--json", str(tmp_path / "r.json"),
        "--methods", "4cameras,cam1",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["metadata"]["runs"] == 2
    assert payload["metadata"]["frames"] == 15
    assert payload["metadata"]["seed"] == 7
    assert list(payload["rows"]) == ["4cameras", "cam1"]
    capsys.readouterr()


def test_cli_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_unknown_method_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(["simulate", "--config", str(cfg), "--methods", "not-a-method"])
    assert code == 1
    capsys.readouterr()


def test_cli_run_tracks_stereo_matches_in_process(tmp_path, capsys):
    rig = default_overlap_rig()
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, rig)
    rig_loaded = __import__("rigpose.geometry", fromlist=["read_rig"]).read_rig(rig_path)

    sim = SimConfig(n_points=2000, n_frames=20, noise_sigma=0.5, n_runs=1, seed=3)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, rig_loaded.cameras, sim.noise_sigma, noise_ss)

    tracks_path = tmp_path / "tracks.csv"
    write_tracks(tracks_path, frames)
    truth_path = tmp_path / "truth.csv"
    write_truth(truth_path, traj)
    poses_path = tmp_path / "poses.csv"

    code = cli.main([
        "run-tracks", "--layout", "stereo", "--rig", str(rig_path),
        "--tracks", str(tracks_path), "--out", str(poses_path),
        "--truth", str(truth_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("method,")

    direct = pipeline.run_stereo_sequence(frames, rig_loaded)
    lines = poses_path.read_text().splitlines()
    assert lines[0] == "frame,tx,ty,tz,alpha,beta,gamma,method"
    for j, line in enumerate(lines[1:]):
        fields = line.split(",")
        vec = np.array([float(x) for x in fields[1:7]])
        expect = np.concatenate([direct.d[j], direct.angles[j]])
        np.testing.assert_allclose(vec, expect, atol=1e-12)


def test_cli_run_tracks_nonoverlap_writes_five_series(tmp_path, capsys):
    rig = default_nonoverlap_rig()
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, rig)

    sim = SimConfig(n_points=2500, n_frames=12, noise_sigma=0.5, n_runs=1, seed=4)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, rig.cameras, sim.noise_sigma, noise_ss)
    tracks_path = tmp_path / "tracks.csv"
    write_tracks(tracks_path, frames)
    poses_path = tmp_path / "poses.csv"

    code = cli.main([
        "run-tracks", "--layout", "nonoverlap", "--rig", str(rig_path),
        "--tracks", str(tracks_path), "--out", str(poses_path),
    ])
    assert code == 0
    methods = {line.rsplit(",", 1)[1] for line in poses_path.read_text().splitlines()[1:]}
    assert methods == {"cam1", "cam2", "cam3", "cam4", "RC"}
    capsys.readouterr()


@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
def test_cli_run_tracks_sparse_feature_ids(tmp_path, capsys, layout):
    # Feature ids need not be small or contiguous: spreading them far apart
    # must not change a byte of the poses.
    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, rig)
    sim = SimConfig(n_points=2500, n_frames=12, noise_sigma=0.5, n_runs=1, seed=4)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(sim.seed, 1)[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, rig.cameras, sim.noise_sigma, noise_ss)
    sparse = [[(ids * 1_000_003 + 2**40, uv) for ids, uv in frame] for frame in frames]

    poses = {}
    for name, stream in (("dense", frames), ("sparse", sparse)):
        write_tracks(tmp_path / f"{name}.csv", stream)
        poses[name] = tmp_path / f"{name}-poses.csv"
        assert cli.main([
            "run-tracks", "--layout", layout, "--rig", str(rig_path),
            "--tracks", str(tmp_path / f"{name}.csv"), "--out", str(poses[name]),
        ]) == 0
    assert poses["sparse"].read_bytes() == poses["dense"].read_bytes()
    capsys.readouterr()


def test_cli_run_tracks_bad_header_exits_1(tmp_path, capsys):
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, default_overlap_rig())
    bad = tmp_path / "tracks.csv"
    bad.write_text("camera,frame,feature,u,v\n0,0,0,1.0,1.0\n")
    code = cli.main([
        "run-tracks", "--layout", "stereo", "--rig", str(rig_path),
        "--tracks", str(bad), "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_cli_run_tracks_layout_rig_mismatch_exits_1(tmp_path, capsys):
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, default_overlap_rig())
    sim = SimConfig(n_points=1000, n_frames=5, noise_sigma=0.0, n_runs=1, seed=5)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, default_overlap_rig().cameras, 0.0, noise_ss)
    tracks = tmp_path / "tracks.csv"
    write_tracks(tracks, frames)
    code = cli.main([
        "run-tracks", "--layout", "nonoverlap", "--rig", str(rig_path),
        "--tracks", str(tracks), "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 1
    capsys.readouterr()


def test_cli_run_tracks_diagnostics_jsonl(tmp_path, capsys):
    rig = default_overlap_rig()
    rig_path = tmp_path / "rig.json"
    write_rig(rig_path, rig)
    sim = SimConfig(n_points=1500, n_frames=8, noise_sigma=0.5, n_runs=1, seed=6)
    seeds = run_seed_sequences(sim.seed, 1)
    scene_rng, traj_rng, noise_ss = run_streams(seeds[0])
    scene = gen_scene(sim, scene_rng)
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(scene, traj, rig.cameras, sim.noise_sigma, noise_ss)
    tracks = tmp_path / "tracks.csv"
    write_tracks(tracks, frames)
    diag_path = tmp_path / "diag.jsonl"
    code = cli.main([
        "run-tracks", "--layout", "stereo", "--rig", str(rig_path),
        "--tracks", str(tracks), "--out", str(tmp_path / "p.csv"),
        "--diagnostics", str(diag_path),
    ])
    assert code == 0
    records = [json.loads(line) for line in diag_path.read_text().splitlines()]
    assert len(records) == 8
    assert all("features" in r or r["frame"] < 2 for r in records)
    assert {"method", "frame", "tag"} <= set(records[0])
    capsys.readouterr()


def test_cli_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 6
    assert "FAIL" not in out


def _config(tmp_path, payload):
    # Under a one-run study, a value that slips past the checks fails the
    # test in seconds instead of starting the default 1,500-run study.
    sim = {"n_runs": 1, "n_frames": 3, "n_points": 500, **payload.get("sim", {})}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "sim": sim}))
    return ["simulate", "--config", str(path)]


def _run_tracks(tmp_path, rig_text, tracks_text, layout="stereo"):
    rig_path = tmp_path / "rig.json"
    rig_path.write_text(rig_text)
    tracks = tmp_path / "tracks.csv"
    tracks.write_text(tracks_text)
    return ["run-tracks", "--layout", layout, "--rig", str(rig_path),
            "--tracks", str(tracks), "--out", str(tmp_path / "p.csv")]


def _rendered(tmp_path, rig, n_frames):
    """Tracks text of a sequence rendered with rig, and the path of its
    ground-truth CSV."""
    sim = SimConfig(n_points=2000, n_frames=n_frames, seed=3)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(sim.seed, 1)[0])
    traj = gen_trajectory(sim, traj_rng)
    frames = render_sequence(gen_scene(sim, scene_rng), traj, rig.cameras, sim.noise_sigma,
                             noise_ss)
    write_tracks(tmp_path / "rendered.csv", frames)
    write_truth(tmp_path / "truth.csv", traj)
    return (tmp_path / "rendered.csv").read_text(), tmp_path / "truth.csv"


def _rig_with_camera_1(tmp_path, rig, layout, **entry):
    """run-tracks argv on a sequence rendered with rig, whose rig file sets
    the given fields of camera 1; the tracks themselves would run."""
    tracks, _ = _rendered(tmp_path, rig, n_frames=4)
    data = rig_to_dict(rig)
    data["cameras"][1].update(entry)
    return _run_tracks(tmp_path, json.dumps(data), tracks, layout)


def _one_frame_with_truth(tmp_path):
    """run-tracks --truth argv on a one-frame sequence that runs, but leaves
    no frame after the first to report errors on."""
    tracks, truth = _rendered(tmp_path, default_overlap_rig(), n_frames=1)
    return _run_tracks(tmp_path, OVERLAP_RIG_TEXT, tracks) + ["--truth", str(truth)]


THREE_CAMERA_TRACKS = "cam,frame,feature,u,v\n" + "".join(
    f"{k},0,1,10.0,10.0\n" for k in range(3)
)

OVERLAP_RIG_TEXT = json.dumps(rig_to_dict(default_overlap_rig()))
REPEATED_ROW_TRACKS = "cam,frame,feature,u,v\n0,0,1,10.0,10.0\n0,0,1,11.0,10.0\n"
FAR_FRAME_TRACKS = "cam,frame,feature,u,v\n3,0,1,10.0,10.0\n0,100000000,1,10.0,10.0\n"
FAR_CAMERA_TRACKS = "cam,frame,feature,u,v\n0,0,1,10.0,10.0\n1000000000,0,1,10.0,10.0\n"
BAD_CONFIG_VALUES = {
    "pipeline-field-string": {"pipeline": {"redetect_threshold": "abc"}},
    "tuning-field-string": {"tuning": {"r_px": "abc"}},
    "sim-negative-points": {"sim": {"n_points": -5}},
    "sim-zero-points": {"sim": {"n_points": 0}},
    "tuning-zero-r_px": {"tuning": {"r_px": 0}},
    "tuning-negative-q": {"tuning": {"q_vel": -1e-4}},
    "tuning-negative-p0": {"tuning": {"p0_struct_depth": -0.25}},
    "pipeline-negative-epipolar-tol": {"pipeline": {"epipolar_tol_px": -1}},
    "pipeline-zero-init-depth": {"pipeline": {"init_depth": 0}},
    "pipeline-three-min-matches": {"pipeline": {"min_matches": 3}},
    "pipeline-negative-redetect": {"pipeline": {"redetect_threshold": -1}},
    "sim-nan-noise": {"sim": {"noise_sigma": float("nan")}},
    "pipeline-infinite-init-depth": {"pipeline": {"init_depth": float("inf")}},
    "tuning-infinite-q": {"tuning": {"q_pose": float("inf")}},
}

MALFORMED_INPUTS = [
    *(pytest.param(lambda t, cfg=cfg: _config(t, cfg), id=name)
      for name, cfg in BAD_CONFIG_VALUES.items()),
    pytest.param(lambda t: _run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS),
                 id="tracks-repeated-row"),
    pytest.param(lambda t: _config(t, {"min_visible": "abc"}), id="min_visible-string"),
    pytest.param(lambda t: _config(t, {"min_visible": None}), id="min_visible-null"),
    pytest.param(lambda t: _config(t, {"rigs": {"overlapping": 5}}), id="rig-block-number"),
    pytest.param(lambda t: _run_tracks(t, "[]", THREE_CAMERA_TRACKS), id="rig-file-list"),
    pytest.param(lambda t: _config(t, {"sim": {"n_points": "abc"}}), id="sim-field-string"),
    pytest.param(lambda t: ["simulate", "--seed", "-1"], id="negative-seed"),
    pytest.param(lambda t: ["simulate", "--runs", "0"], id="zero-runs"),
    pytest.param(lambda t: ["simulate", "--frames", "0"], id="zero-frames"),
    pytest.param(lambda t: ["simulate", "--frames", "1"], id="one-frame"),
    pytest.param(lambda t: _run_tracks(t, OVERLAP_RIG_TEXT, THREE_CAMERA_TRACKS),
                 id="tracks-fewer-cameras-than-rig"),
    pytest.param(lambda t: ["simulate", "--workers", "0"], id="zero-workers"),
    pytest.param(lambda t: _run_tracks(t, OVERLAP_RIG_TEXT, FAR_FRAME_TRACKS),
                 id="tracks-frame-1e8"),
    pytest.param(lambda t: _run_tracks(t, OVERLAP_RIG_TEXT, FAR_CAMERA_TRACKS),
                 id="tracks-camera-1e9"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_nonoverlap_rig(), "nonoverlap",
                                              D=[float("nan"), 0.0, 0.0]), id="rig-nan-D"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo",
                                              fx=float("inf")), id="rig-infinite-fx"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo",
                                              width=float("inf")), id="rig-infinite-width"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo",
                                              R_angles=[float("inf"), 0.0, 0.0]),
                 id="rig-infinite-R_angles"),
    pytest.param(_one_frame_with_truth, id="tracks-one-frame-with-truth"),
]


@pytest.mark.parametrize("make_argv", MALFORMED_INPUTS)
def test_cli_malformed_input_exits_1(tmp_path, capsys, make_argv):
    assert cli.main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err
