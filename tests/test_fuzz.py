"""A deterministic mutation fuzz of every input file of `rigpose run-tracks`.

Seeded draws mutate one of a valid tracks, truth, rig and config file of a
four-frame sequence per case: a bit flipped in one byte, a field dropped, a
line cut short, a value retyped, or a path swapped for a directory. Every
case must end with exit code 0, 1 or 2, never with a traceback, and exit 1
must print an `error:` line.
"""

import json

import numpy as np
import pytest

from rigpose import cli
from rigpose.geometry import default_nonoverlap_rig, default_overlap_rig, rig_to_dict
from rigpose.pipeline import write_tracks, write_truth
from rigpose.simulate import (
    SimConfig,
    gen_scene,
    gen_trajectory,
    render_sequence,
    run_seed_sequences,
    run_streams,
)

N_CASES = 300
FILES = ("tracks", "truth", "rig", "config")
MUTATIONS = ("flip", "drop", "cut", "retype", "directory")
# What a retyped value becomes: JSON values of every type, and CSV fields
# that are empty, not numbers, not finite, out of range or oddly written.
JSON_VALUES = [None, True, False, "x", "", -1, 0, 7, 0.5, -2.5, 1e300, [], {}, [1, 2, 3]]
CSV_FIELDS = ["", "x", "-1", "0", "3", "0.5", "nan", "-inf", "1e400", "99999999999999999999",
              "1_0", " 7", '"1"', "0x10"]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The text of each valid input file of one four-frame stereo sequence."""
    tmp = tmp_path_factory.mktemp("valid")
    sim = SimConfig(n_points=1500, n_frames=4, seed=3)
    scene_rng, traj_rng, noise_ss = run_streams(run_seed_sequences(sim.seed, 1)[0])
    traj = gen_trajectory(sim, traj_rng)
    rig = default_overlap_rig()
    frames = render_sequence(gen_scene(sim, scene_rng), traj, rig.cameras, sim.noise_sigma,
                             noise_ss)
    write_tracks(tmp / "tracks.csv", frames)
    write_truth(tmp / "truth.csv", traj)
    config = {"sim": {"n_points": 500, "n_frames": 4, "n_runs": 1},
              "rigs": {"overlapping": rig_to_dict(rig),
                       "non-overlapping": rig_to_dict(default_nonoverlap_rig())},
              "tuning": {"r_px": 0.5}, "pipeline": {"redetect_threshold": 20},
              "min_visible": 20}
    return {"tracks": (tmp / "tracks.csv").read_text(), "truth": (tmp / "truth.csv").read_text(),
            "rig": json.dumps(rig_to_dict(rig), indent=2),
            "config": json.dumps(config, indent=2)}


def _places(value):
    """(container, key) of every value nested in a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield value, key
        if isinstance(item, (dict, list)) and item:
            yield from _places(item)


def _mutate(text: str, kind: str, mutation: str, rng) -> bytes:
    """text with one mutation of the given kind drawn from rng."""
    data = text.encode()
    if mutation == "flip":
        at = rng.integers(len(data))
        return data[:at] + bytes([data[at] ^ (1 << rng.integers(8))]) + data[at + 1:]
    lines = text.split("\n")
    line = rng.integers(len(lines) - 1)   # the text ends with a line break
    if mutation == "cut":
        lines[line] = lines[line][:rng.integers(len(lines[line]) + 1)]
        return "\n".join(lines).encode()
    if kind in ("tracks", "truth"):
        fields = lines[line].split(",")
        at = rng.integers(len(fields))
        if mutation == "drop":
            del fields[at]
        else:
            fields[at] = CSV_FIELDS[rng.integers(len(CSV_FIELDS))]
        lines[line] = ",".join(fields)
        return "\n".join(lines).encode()
    value = json.loads(text)
    places = list(_places(value))
    container, key = places[rng.integers(len(places))]
    if mutation == "drop":
        del container[key]
    else:
        container[key] = JSON_VALUES[rng.integers(len(JSON_VALUES))]
    return json.dumps(value, indent=2).encode()


def test_mutated_inputs_exit_0_1_or_2(valid_inputs, tmp_path, capsys):
    rng = np.random.default_rng(2026)
    paths = {kind: tmp_path / f"{kind}.{'csv' if kind in ('tracks', 'truth') else 'json'}"
             for kind in FILES}
    flags = {"tracks": "--tracks", "truth": "--truth", "rig": "--rig", "config": "--config"}
    seen = set()
    for case in range(N_CASES):
        kind = FILES[rng.integers(len(FILES))]
        mutation = MUTATIONS[rng.integers(len(MUTATIONS))]
        for name, path in paths.items():
            path.write_text(valid_inputs[name])
        argv = ["run-tracks", "--layout", "stereo", "--out", str(tmp_path / "poses.csv")]
        for name, path in paths.items():
            argv += [flags[name], str(tmp_path if name == kind and mutation == "directory"
                                      else path)]
        if mutation != "directory":
            paths[kind].write_bytes(_mutate(valid_inputs[kind], kind, mutation, rng))
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"case {case} ({mutation} in {kind}) raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), f"case {case} ({mutation} in {kind}) exited {code}"
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), (case, err)
        seen.add((kind, mutation, code))
    # The draws reach every file with every mutation, and all three codes.
    assert {(k, m) for k, m, _ in seen} == {(k, m) for k in FILES for m in MUTATIONS}
    assert {code for *_, code in seen} == {0, 1, 2}
