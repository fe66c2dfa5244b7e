import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from reference import stream_of
from rigpose import cli, geometry, harness, pipeline
from rigpose.errors import InputError, check_output_paths
from rigpose.geometry import (
    CameraRig,
    default_nonoverlap_rig,
    default_overlap_rig,
    rig_to_dict,
    write_rig,
)
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


def test_monte_carlo_builds_the_run_setup_once(monkeypatch):
    # The front pair's rig and the union of both rigs are built, and the
    # rigs checked, once per study and carried in its setup, not per run.
    built = []
    rig, union = harness.CameraRig, harness.build_union
    monkeypatch.setattr(harness, "CameraRig", lambda *a, **k: built.append("rig") or rig(*a, **k))
    monkeypatch.setattr(harness, "build_union", lambda rigs: built.append("union") or union(rigs))
    report = tiny_report()
    assert report.metadata["valid_runs"] == 3
    assert built == ["rig", "union"]


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


def test_monte_carlo_rejects_a_repeated_method():
    # A repeated method's row would be summed once per copy and divided by
    # the run count once.
    with pytest.raises(InputError, match="'4cameras' is listed more than once"):
        tiny_report(methods=["4cameras", "4cameras"])


def test_monte_carlo_rejects_an_empty_method_selection():
    # Only an absent selection means every method; an empty one ran all seven.
    with pytest.raises(InputError, match="no method selected"):
        tiny_report(methods=[])


@pytest.mark.parametrize("workers", [2.5, True, "2"])
def test_monte_carlo_rejects_a_worker_count_that_is_not_an_int(workers):
    # A float or a bool would run and be recorded as given; a string would
    # end in a bare TypeError.
    with pytest.raises(InputError, match="workers"):
        tiny_report(workers=workers)


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


def test_setup_hash_is_pinned():
    # A report's config_hash names its setup across versions: the same
    # setup keeps the same hash.
    setup = harness.ExperimentSetup(
        sim=SimConfig(**TINY), rig_overlap=default_overlap_rig(),
        rig_nonoverlap=default_nonoverlap_rig(), methods=("4cameras", "RC"), min_visible=15,
        ideal_init=True,
    )
    assert harness.setup_hash(setup) == "dc63271a78fd7d15"


def test_min_visible_default_is_one_value():
    in_setup = {f.name: f.default for f in dataclasses.fields(harness.ExperimentSetup)}
    in_signature = inspect.signature(harness.monte_carlo).parameters["min_visible"].default
    assert "min_visible" not in harness.config_from_dict({}, "defaults")
    assert in_setup["min_visible"] == in_signature == harness.MIN_VISIBLE


CONFIG_BLOCKS = {
    "sim": ({"sim": {"n_points": 777}}, "sim"),
    "overlapping": ({"rigs": {"overlapping": rig_to_dict(default_overlap_rig())}}, "rig_overlap"),
    "non-overlapping": ({"rigs": {"non-overlapping": rig_to_dict(default_nonoverlap_rig())}},
                        "rig_nonoverlap"),
    "tuning": ({"tuning": {"r_px": 0.7}}, "tuning"),
    "pipeline": ({"pipeline": {"redetect_threshold": 33}}, "pipeline_cfg"),
    "min_visible": ({"min_visible": 12}, "min_visible"),
}


def test_config_from_dict_of_no_blocks_is_empty():
    assert harness.config_from_dict({}, "config") == {}
    assert harness.config_from_dict({"rigs": {}}, "config") == {}


@pytest.mark.parametrize("name", CONFIG_BLOCKS)
def test_config_from_dict_holds_only_the_blocks_given(name):
    # Each block given becomes the monte_carlo argument it fills; an absent
    # one takes its default where it is used.
    data, argument = CONFIG_BLOCKS[name]
    assert list(harness.config_from_dict(data, "config")) == [argument]
    assert argument in inspect.signature(harness.monte_carlo).parameters


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sim": {"n_points": 777, "seed": 9},
        "rigs": {"overlapping": rig_to_dict(default_overlap_rig())},
        "tuning": {"r_px": 0.7},
        "pipeline": {"redetect_threshold": 33},
        "min_visible": 12,
    }))
    cfg = harness.load_config(path)
    assert cfg["sim"].n_points == 777
    assert cfg["sim"].n_frames == SimConfig().n_frames
    assert cfg["tuning"].r_px == 0.7
    assert cfg["pipeline_cfg"].redetect_threshold == 33
    assert cfg["min_visible"] == 12
    assert cfg["rig_overlap"].layout == "overlapping"
    assert "rig_nonoverlap" not in cfg


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


def test_cli_simulate_defaults_equal_an_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    argv = ["simulate", "--runs", "1", "--frames", "3", "--seed", "1"]
    assert cli.main(argv) == 0
    without = capsys.readouterr().out
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == without
    assert without.startswith("method,tx,")


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


def test_cli_empty_method_selection_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(["simulate", "--config", str(cfg), "--methods", ""])
    assert code == 1
    captured = capsys.readouterr()
    assert "unknown method ''" in captured.err and not captured.out


def test_cli_repeated_method_exits_1(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(["simulate", "--config", str(cfg), "--methods", "4cameras,4cameras,2cameras"])
    assert code == 1
    assert "'4cameras' is listed more than once" in capsys.readouterr().err


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
        np.testing.assert_allclose(vec, direct.x[j], atol=1e-12)


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
    sparse = stream_of([(ids * 1_000_003 + 2**40, uv) for ids, uv in frame] for frame in frames)

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


@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
def test_cli_run_tracks_diagnostics_jsonl(tmp_path, capsys, layout):
    # One record per frame for each series written. A record's method names
    # its series and its tag is the series' step tag, also where a chain's
    # diagnostics carry their own "method" key. Every record of a pose
    # filter holds its feature count and its layout's replenish flag.
    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
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
        "run-tracks", "--layout", layout, "--rig", str(rig_path),
        "--tracks", str(tracks), "--out", str(tmp_path / "p.csv"),
        "--diagnostics", str(diag_path),
    ])
    assert code == 0
    records = [json.loads(line) for line in diag_path.read_text().splitlines()]
    names = ["stereo"] if layout == "stereo" else ["cam1", "cam2", "cam3", "cam4", "RC"]
    assert [r["method"] for r in records] == [name for name in names for _ in range(8)]
    assert {"method", "frame", "tag"} <= set(records[0])
    flag = "retriangulated" if layout == "stereo" else "redetected"
    for r in records:
        if r["method"] != "RC":
            assert "features" in r and isinstance(r[flag], bool), r
            assert r["tag"] in {0: {"init"}, 1: {"lowe"}}.get(r["frame"], {"ekf", "ekf-skip"}), r
    capsys.readouterr()


def test_run_tracks_stereo_seeds_from_every_camera_when_camera_0_is_starved(tmp_path, capsys):
    # Camera 0 keeps 3 rows at frame 1 and the other cameras keep theirs:
    # the stereo filter's Lowe seed reads every camera's measurable rows, so
    # the sequence runs to its end in process and through run-tracks.
    rig = default_overlap_rig()
    write_rig(tmp_path / "rig.json", rig)
    sim = SimConfig(n_points=1500, n_frames=4, noise_sigma=0.5, seed=19)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(sim.seed, 1)[0])
    frames = render_sequence(gen_scene(sim, scene_rng), gen_trajectory(sim, traj_rng),
                             rig.cameras, sim.noise_sigma, noise_ss)
    starved = [list(entries) for entries in frames]
    ids, uv = starved[1][0]
    starved[1][0] = (ids[:3], uv[:3])
    assert all(len(ids) > 20 for ids, _ in starved[1][1:])
    starved = stream_of(starved)
    series = pipeline.run_stereo_sequence(starved, rig)
    assert series.methods == ["init", "lowe", "ekf", "ekf"]
    write_tracks(tmp_path / "tracks.csv", starved)
    assert cli.main(["run-tracks", "--layout", "stereo", "--rig", str(tmp_path / "rig.json"),
                     "--tracks", str(tmp_path / "tracks.csv"),
                     "--out", str(tmp_path / "poses.csv")]) == 0
    assert len((tmp_path / "poses.csv").read_text().splitlines()) == 1 + sim.n_frames
    capsys.readouterr()


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


def _swap(argv, flag, value):
    """argv with the value of flag replaced by value."""
    at = argv.index(flag) + 1
    return argv[:at] + [str(value)] + argv[at + 1:]


def _not_utf8(argv, flag):
    """argv whose file named by flag holds the byte 0xff after its first 1."""
    path = Path(argv[argv.index(flag) + 1])
    path.write_bytes(path.read_bytes().replace(b"1", b"1\xff", 1))
    return argv


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


def _coincident_stereo_pair(tmp_path, command):
    """argv of command on a two-camera overlapping rig whose cameras share
    one center; run-tracks gets tracks rendered with the real front pair."""
    front = CameraRig(default_overlap_rig().cameras[:2])
    if command == "run-tracks":
        return _rig_with_camera_1(tmp_path, front, "stereo", D=[0.0, 0.0, 0.0])
    rig = rig_to_dict(front)
    rig["cameras"][1]["D"] = [0.0, 0.0, 0.0]
    return _config(tmp_path, {"rigs": {"overlapping": rig}, "min_visible": 15,
                              "sim": {"n_runs": 2, "n_points": 1500}})


@pytest.mark.parametrize("command", ["run-tracks", "simulate"])
def test_cli_rig_with_coincident_stereo_pair_exits_1(tmp_path, capsys, command):
    # A stereo pair without a baseline has no epipolar geometry: the rig is
    # malformed input, rejected where it is built, before any run or frame.
    assert cli.main(_coincident_stereo_pair(tmp_path, command)) == 1
    err = capsys.readouterr().err
    assert "error: cameras 0 and 1 have coincident centers" in err, err


ZERO_SIZE_IMAGE = {"width": 0, "height": 0, "cx": 0.0, "cy": 0.0}


def _zero_size_images(tmp_path):
    """simulate argv whose overlapping rig's cameras all have 0x0 images,
    with the principal point inside those bounds."""
    rig = rig_to_dict(default_overlap_rig())
    for camera in rig["cameras"]:
        camera.update(ZERO_SIZE_IMAGE)
    return _config(tmp_path, {"rigs": {"overlapping": rig}})


def _non_finite_truth(tmp_path):
    """run-tracks --truth argv on a five-frame sequence that runs, whose
    truth CSV holds a nan tx and an infinite alpha."""
    tracks, truth = _rendered(tmp_path, default_overlap_rig(), n_frames=5)
    rows = truth.read_text().splitlines()
    for line, column, value in [(2, 1, "nan"), (4, 4, "inf")]:
        fields = rows[line - 1].split(",")
        fields[column] = value
        rows[line - 1] = ",".join(fields)
    truth.write_text("\n".join(rows) + "\n")
    return _run_tracks(tmp_path, OVERLAP_RIG_TEXT, tracks) + ["--truth", str(truth)]


def _huge_pixel(tmp_path):
    """run-tracks argv on a four-frame sequence that runs, whose first
    tracks row of frame 1 in camera 0 has v = 1e20."""
    tracks, _ = _rendered(tmp_path, default_overlap_rig(), n_frames=4)
    rows = tracks.splitlines()
    at = next(i for i, row in enumerate(rows) if row.startswith("0,1,"))
    rows[at] = rows[at].rsplit(",", 1)[0] + ",1e20"
    return _run_tracks(tmp_path, OVERLAP_RIG_TEXT, "\n".join(rows) + "\n")


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
    "pipeline-negative-redetect": {"pipeline": {"redetect_threshold": -1}},
    "sim-nan-noise": {"sim": {"noise_sigma": float("nan")}},
    "pipeline-infinite-init-depth": {"pipeline": {"init_depth": float("inf")}},
    "tuning-infinite-q": {"tuning": {"q_pose": float("inf")}},
    "tuning-r_px-1e300": {"tuning": {"r_px": 1e300}},
}


# Integer fields beyond MAX_MAGNITUDE, where sizes and counts overflow
# numpy's array limits, and the field the error line must name.
HUGE_INTEGERS = {
    **{f"sim-{name}-1e30": (lambda t, name=name: _config(t, {"sim": {name: 10**30}}), f"sim.{name}")
       for name in ("n_points", "n_frames", "n_runs", "seed")},
    "runs-flag-1e30": (lambda t: ["simulate", "--runs", str(10**30)], "sim.n_runs"),
}

# Out-of-range min_visible values, and the error line each must give.
BAD_MIN_VISIBLE = {
    "min_visible-1e30": (10**30, "error: min_visible must be within"),
    "min_visible-negative": (-5, "error: min_visible must be >= 0"),
}


def _rig_block(rig, layout=None, n_cameras=None):
    """A config rigs block of rig, re-tagged with layout or cut to its first
    n_cameras cameras."""
    data = rig_to_dict(rig)
    data["layout"] = layout or data["layout"]
    data["cameras"] = data["cameras"][:n_cameras]
    return data


MALFORMED_RIG_SHAPES = {
    "simulate-overlapping-odd-cameras": {"overlapping": _rig_block(default_overlap_rig(),
                                                                   n_cameras=3)},
    "simulate-nonoverlapping-3-cameras": {"non-overlapping": _rig_block(default_nonoverlap_rig(),
                                                                        n_cameras=3)},
    "simulate-overlapping-tagged-nonoverlapping": {
        "overlapping": _rig_block(default_overlap_rig(), layout="non-overlapping")},
}

# Each edit of the default overlapping rig's JSON object, and the text
# that the error line must hold.
RIG_EDITS = {
    "width-640.9": (lambda rig: rig["cameras"][1].update(width=640.9),
                    "cameras[1]: intrinsics.width must be int, got 640.9"),
    "fx-true": (lambda rig: rig["cameras"][1].update(fx=True),
                "cameras[1]: intrinsics.fx must be float, got True"),
    "unknown-camera-key": (lambda rig: rig["cameras"][1].update(fxx=1000.0),
                           "cameras[1]: unknown key 'fxx'"),
    "unknown-rig-key": (lambda rig: rig.update(baseline=0.1), "unknown key 'baseline'"),
    "D-entry-true": (lambda rig: rig["cameras"][1].update(D=[0.1, 0.0, True]),
                     "cameras[1].D[2] must be float, got True"),
    "R_angles-two-entries": (lambda rig: rig["cameras"][1].update(R_angles=[0.0, 0.0]),
                             "cameras[1].R_angles must be a list of 3 numbers"),
}


def _edited_rig(tmp_path, command, edit):
    """argv of command on the default overlapping rig edited by edit: a
    run-tracks rig file, with tracks that would run, or a simulate config's
    rigs block."""
    rig = rig_to_dict(default_overlap_rig())
    edit(rig)
    if command == "run-tracks":
        tracks, _ = _rendered(tmp_path, default_overlap_rig(), n_frames=4)
        return _run_tracks(tmp_path, json.dumps(rig), tracks)
    return _config(tmp_path, {"rigs": {"overlapping": rig}})


# Output paths that cannot be written: each command checks them before it
# renders a run or reads the tracks.
UNWRITABLE_OUTPUTS = {
    "simulate-out-directory":
        lambda t: ["simulate", "--runs", "1", "--frames", "3", "--out", str(t)],
    "simulate-json-in-missing-directory":
        lambda t: ["simulate", "--runs", "1", "--frames", "3", "--json", str(t / "no" / "r.json")],
    "out-in-missing-directory":
        lambda t: _swap(_run_tracks(t, OVERLAP_RIG_TEXT,
                                    _rendered(t, default_overlap_rig(), n_frames=4)[0]),
                        "--out", t / "nodir" / "x.csv"),
    "run-tracks-diagnostics-directory":
        lambda t: _run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS) + ["--diagnostics", str(t)],
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
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo", fx=1e300),
                 id="rig-fx-1e300"),
    pytest.param(_huge_pixel, id="tracks-pixel-1e20"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo",
                                              R_angles=[float("inf"), 0.0, 0.0]),
                 id="rig-infinite-R_angles"),
    pytest.param(lambda t: _rig_with_camera_1(t, default_overlap_rig(), "stereo",
                                              **ZERO_SIZE_IMAGE), id="rig-zero-size-image"),
    pytest.param(_zero_size_images, id="simulate-rig-zero-size-images"),
    pytest.param(_one_frame_with_truth, id="tracks-one-frame-with-truth"),
    pytest.param(_non_finite_truth, id="truth-non-finite"),
    *(pytest.param(lambda t, rigs=rigs: _config(t, {"rigs": rigs}), id=name)
      for name, rigs in MALFORMED_RIG_SHAPES.items()),
    pytest.param(lambda t: _swap(_run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS),
                                 "--tracks", t / "missing.csv"), id="tracks-missing"),
    pytest.param(lambda t: _swap(_run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS),
                                 "--rig", t / "missing.json"), id="rig-missing"),
    pytest.param(lambda t: _swap(_run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS),
                                 "--rig", t), id="rig-directory"),
    pytest.param(lambda t: ["simulate", "--config", str(t)], id="config-directory"),
    *(pytest.param(argv, id=name) for name, argv in UNWRITABLE_OUTPUTS.items()),
    pytest.param(lambda t: _not_utf8(_run_tracks(t, OVERLAP_RIG_TEXT, REPEATED_ROW_TRACKS),
                                     "--tracks"), id="tracks-not-utf8"),
    pytest.param(lambda t: _not_utf8(_config(t, {}), "--config"), id="config-not-utf8"),
    *(pytest.param(lambda t, c=command, e=edit: _edited_rig(t, c, e), id=f"{command}-rig-{name}")
      for name, (edit, _) in RIG_EDITS.items() for command in ("run-tracks", "simulate")),
    pytest.param(lambda t: _config(t, {"rigs": {"overlaping": {}}}), id="config-rigs-unknown-key"),
    *(pytest.param(argv, id=name) for name, (argv, _) in HUGE_INTEGERS.items()),
    *(pytest.param(lambda t, v=value: _config(t, {"min_visible": v}), id=name)
      for name, (value, _) in BAD_MIN_VISIBLE.items()),
    # Within the 1e12 bound, but terabytes in one allocation, which the host
    # refuses at once.
    *(pytest.param(lambda t, name=name: _config(t, {"sim": {name: 10**12}}),
                   id=f"sim-{name}-1e12") for name in ("n_points", "n_frames")),
]


@pytest.mark.parametrize("make_argv", MALFORMED_INPUTS)
def test_cli_malformed_input_exits_1(tmp_path, capsys, make_argv):
    assert cli.main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


@pytest.mark.parametrize("name", HUGE_INTEGERS)
def test_cli_huge_integer_names_the_field(tmp_path, capsys, name):
    make_argv, field = HUGE_INTEGERS[name]
    assert cli.main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"error: {field} must be within" in err, err


@pytest.mark.parametrize("name", BAD_MIN_VISIBLE)
def test_cli_min_visible_error_names_the_field(tmp_path, capsys, name):
    value, message = BAD_MIN_VISIBLE[name]
    assert cli.main(_config(tmp_path, {"min_visible": value})) == 1
    assert message in capsys.readouterr().err


def test_monte_carlo_rejects_negative_min_visible():
    with pytest.raises(InputError, match="min_visible"):
        harness.monte_carlo(SimConfig(n_points=500, n_frames=3, n_runs=1), min_visible=-5)


@pytest.mark.parametrize("command", ["run-tracks", "simulate"])
@pytest.mark.parametrize("name", RIG_EDITS)
def test_cli_rig_error_names_the_field(tmp_path, capsys, command, name):
    # A value of the wrong type or an unknown key is rejected by name, in a
    # rig file and in a config's rigs block alike; none is cast or ignored.
    edit, message = RIG_EDITS[name]
    assert cli.main(_edited_rig(tmp_path, command, edit)) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err, err


@pytest.mark.parametrize("name", UNWRITABLE_OUTPUTS)
def test_cli_checks_output_paths_before_any_work(tmp_path, capsys, monkeypatch, name):
    argv = UNWRITABLE_OUTPUTS[name](tmp_path)

    def work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(harness, "render_sequence", work)
    monkeypatch.setattr(pipeline, "read_tracks", work)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    assert sorted(tmp_path.rglob("*")) == before, "an output path was created"
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


def _every_path(tmp_path, command):
    """argv of a command that runs, with each of its input and output flags
    on a file of its own; the inputs exist, the outputs do not."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sim": {"n_points": 500}}))
    if command == "simulate":
        return ["simulate", "--runs", "1", "--frames", "3", "--config", str(config),
                "--out", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json")]
    tracks, truth = _rendered(tmp_path, default_overlap_rig(), n_frames=4)
    return _run_tracks(tmp_path, OVERLAP_RIG_TEXT, tracks) + [
        "--truth", str(truth), "--config", str(config),
        "--diagnostics", str(tmp_path / "d.jsonl")]


SHARED_PATHS = [
    ("simulate", "--out", "--json"),
    ("simulate", "--out", "--config"),
    ("simulate", "--json", "--config"),
    *(("run-tracks", "--out", other)
      for other in ("--tracks", "--rig", "--truth", "--config", "--diagnostics")),
    *(("run-tracks", "--diagnostics", other)
      for other in ("--tracks", "--rig", "--truth", "--config")),
]


@pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
@pytest.mark.parametrize("command, output, other", SHARED_PATHS)
def test_cli_refuses_an_output_on_another_path_of_the_command(
    tmp_path, capsys, monkeypatch, command, output, other, link
):
    # An output that is the same file as another output or an input of the
    # command, by name or through a link, is refused before any file is read
    # or written, and the file it names keeps its content.
    argv = _every_path(tmp_path, command)

    def read(*args, **kwargs):
        raise AssertionError("the command read an input")

    for module, name in [(cli, "read_rig"), (harness, "load_config"), (pipeline, "read_tracks"),
                         (pipeline, "read_truth")]:
        monkeypatch.setattr(module, name, read)
    shared = Path(argv[argv.index(other) + 1])
    if not shared.exists():
        shared.write_text("an earlier output\n")
    before = shared.read_bytes()
    if link:
        (tmp_path / "link").symlink_to(shared)
    assert cli.main(_swap(argv, output, tmp_path / "link" if link else shared)) == 1
    assert shared.read_bytes() == before
    err = capsys.readouterr().err
    assert "error: " in err and "the same file as" in err, err


def test_two_inputs_may_name_one_file(tmp_path):
    (tmp_path / "in.json").write_text("{}")
    check_output_paths([tmp_path / "out.csv", None], [tmp_path / "in.json", tmp_path / "in.json"])


@pytest.mark.parametrize("rig, layout", [(default_nonoverlap_rig(), "stereo"),
                                         (default_overlap_rig(), "nonoverlap")])
def test_run_tracks_checks_the_rig_layout_before_reading_tracks(
    tmp_path, capsys, monkeypatch, rig, layout
):
    def read_tracks(*args, **kwargs):
        raise AssertionError("the tracks were read")

    monkeypatch.setattr(pipeline, "read_tracks", read_tracks)
    argv = _run_tracks(tmp_path, json.dumps(rig_to_dict(rig)), REPEATED_ROW_TRACKS, layout)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines()), err


@pytest.mark.parametrize("layout", ["stereo", "nonoverlap"])
@pytest.mark.parametrize("config", [None, {"tuning": {"r_px": 0.6}, "min_visible": 5}],
                         ids=["no-config", "config"])
def test_run_tracks_builds_no_default_rig(tmp_path, monkeypatch, layout, config):
    # run-tracks estimates on its rig file, with the config's blocks or the
    # estimators' own defaults: it has no use for the study's rigs.
    rig = default_overlap_rig() if layout == "stereo" else default_nonoverlap_rig()
    tracks, _ = _rendered(tmp_path, rig, n_frames=4)
    argv = _run_tracks(tmp_path, json.dumps(rig_to_dict(rig)), tracks, layout)
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]

    def default_rig():
        raise AssertionError("a default rig was built")

    for module in (geometry, harness):
        for name in ("default_overlap_rig", "default_nonoverlap_rig"):
            monkeypatch.setattr(module, name, default_rig)
    assert cli.main(argv) == 0


# Each fault of a six-frame sequence's truth file, and the text that the
# error line must hold.
TRUTH_FAULTS = {
    "four-frames": (lambda text: "".join(text.splitlines(keepends=True)[:5]),
                    "truth has 4 frames, the observations have 6"),
    "bad-header": (lambda text: text.replace("frame,", "frames,", 1), "expected header"),
}


@pytest.mark.parametrize("name", TRUTH_FAULTS)
def test_run_tracks_checks_the_truth_before_estimating(tmp_path, capsys, monkeypatch, name):
    # Every input is read and checked before the estimator runs, so a bad
    # truth leaves no output behind.
    def estimate(*args, **kwargs):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr(pipeline, "run_stereo_sequence", estimate)
    tracks, truth = _rendered(tmp_path, default_overlap_rig(), n_frames=6)
    fault, message = TRUTH_FAULTS[name]
    truth.write_text(fault(truth.read_text()))
    argv = _run_tracks(tmp_path, OVERLAP_RIG_TEXT, tracks) + [
        "--truth", str(truth), "--diagnostics", str(tmp_path / "d.jsonl")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err, err
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("rigs", MALFORMED_RIG_SHAPES.values(), ids=MALFORMED_RIG_SHAPES)
def test_monte_carlo_rejects_a_rig_shape_before_rendering(monkeypatch, rigs):
    # A rig the layout's pipeline cannot take fails every run the same way,
    # so it is rejected with the other arguments, before any run renders.
    cfg = harness.config_from_dict({"rigs": rigs}, "config")

    def render(*args, **kwargs):
        raise AssertionError("a run was rendered")

    monkeypatch.setattr(harness, "render_sequence", render)
    with pytest.raises(InputError, match="pipeline needs a rig tagged"):
        harness.monte_carlo(SimConfig(n_runs=2, n_frames=3, n_points=500), **cfg)


def test_run_tracks_header_only_exits_1_without_a_numpy_warning(tmp_path, capsys):
    argv = _run_tracks(tmp_path, OVERLAP_RIG_TEXT, "cam,frame,feature,u,v\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "no data rows" in err and "Warning" not in err, err


def test_readme_cli_block_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("rigpose ")}
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


def test_import_leaves_the_process_pool_unloaded():
    # monte_carlo imports concurrent.futures only when it starts a pool, so
    # importing the package, which the CLI does on every call, skips it.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, rigpose; print([m for m in sys.modules if m.startswith('concurrent')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
