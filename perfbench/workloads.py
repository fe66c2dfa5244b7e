"""The benchmark's workloads: inputs made from the seed, timed units of
work, and the checks on their outputs.

A workload exposes:

  build()          construct the configs and rigs it needs (timed as set-up)
  prepare(seed, workdir, traced)
                   make its inputs from the seed (not timed)
  stage(i)         make unit i's inputs ready (not timed)
  unit(i)          run timed unit i; returns a dict with "attempted" and
                   "failed" operations and "valid" runs or replays
  trace_unit()     the fixed unit the traced passes repeat
  check_trace_unit(u)  problems found in one traced unit's outputs
  rc_errors(u)     RC translation (mm) and rotation (mrad) errors of a unit
  finish(units)    check every output, return (accuracy rows, checks, extras)

MC workloads drive ``harness.monte_carlo``; ``tracks_replay`` drives
``cli.main(["run-tracks", ...])``. Both look the functions up on the module
at call time, so the tracer's wrappers are reached when installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

PARAMS = ["tx", "ty", "tz", "alpha", "beta", "gamma"]


def derive_seed(seed: int, salt: int, i: int, redraw: int = 0) -> int:
    """Independent SimConfig seed number i for a workload seed; redraw r > 0
    gives the r-th replacement for it."""
    key = [salt, seed, i] + ([redraw] if redraw else [])
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def error_pair(row) -> tuple[float, float]:
    """Mean translation MAE in mm and mean rotation MAE in mrad of a
    report row (tx, ty, tz, alpha, beta, gamma in m and rad)."""
    row = np.asarray(row, dtype=float)
    return float(row[:3].mean() * 1e3), float(row[3:].mean() * 1e3)


class MonteCarlo:
    """Repeated ``harness.monte_carlo`` calls of ``runs_per_call`` runs.

    The first ``accuracy_calls`` calls always run, whatever the time
    budget, and form the accuracy report, so the error metrics and the
    report sha256 depend on the seed only.

    The harness drops a run whose scene shows fewer than ``min_visible``
    features in some camera at frame 0. The benchmark applies the same
    screen to its inputs before timing (``stage``): a call's seed is
    redrawn until every run passes, so each timed call does the full work
    of ``runs_per_call`` runs. Redrawn seeds are listed in the record.
    """

    def __init__(self, rp, name, why, salt, n_points, pipeline_kwargs, min_visible,
                 workers, runs_per_call, accuracy_calls, trace_runs):
        self.rp = rp
        self.name = name
        self.why = why
        self.salt = salt
        self.n_points = n_points
        self.pipeline_kwargs = pipeline_kwargs
        self.min_visible = min_visible
        self.workers = workers
        self.runs_per_call = runs_per_call
        self.min_units = accuracy_calls
        self.trace_runs = trace_runs

    def build(self):
        rp = self.rp
        self.sim = rp.simulate.SimConfig(
            n_points=self.n_points, n_frames=100, noise_sigma=0.5,
            n_runs=self.runs_per_call, seed=0,
        )
        self.pcfg = rp.pipeline.PipelineConfig(**self.pipeline_kwargs)
        self.tuning = rp.ekf.FilterTuning()
        self.rig_overlap = rp.geometry.default_overlap_rig()
        self.rig_nonoverlap = rp.geometry.default_nonoverlap_rig()

    @property
    def epipolar_tol_px(self) -> float:
        return self.pcfg.epipolar_tol_px

    def prepare(self, seed, workdir, traced=False):
        self.seed = seed
        self.warmup_problems = []
        self.union, _ = self.rp.simulate.build_union([self.rig_nonoverlap, self.rig_overlap])
        self.call_seeds = {}
        self.redrawn = []
        # Warm-up: one tiny run so lazily loaded numpy paths are not timed.
        tiny = self.sim.with_overrides(n_frames=3, n_runs=1,
                                       seed=self._screened_seed(10**6, 1))
        with contextlib.suppress(self.rp.errors.RigPoseError):
            self._call(tiny, workers=1)
        self.trace_seed = self._screened_seed(0, self.trace_runs)
        return {}

    def frame0_visible(self, sim_seed, n_runs) -> int:
        """Fewest features any camera sees at frame 0 over the runs of a
        ``monte_carlo`` call with this seed, as the harness counts them:
        the same run streams, scene and union of both rigs. Frame 0 is the
        identity pose and noise is added after the visibility test, so one
        noiseless frame gives the same counts."""
        sm = self.rp.simulate
        one_frame = self.sim.with_overrides(n_frames=1)
        counts = []
        for run_seed in sm.run_seed_sequences(sim_seed, n_runs):
            scene_rng, traj_rng, _ = sm.run_streams(run_seed)
            scene = sm.gen_scene(self.sim, scene_rng)
            traj = sm.gen_trajectory(one_frame, traj_rng)
            frames = sm.render_sequence(scene, traj, self.union, 0.0)
            counts += sm.visible_counts(frames, frame=0)
        return min(counts)

    def _screened_seed(self, i, n_runs) -> int:
        """The first of seed i and its redraws whose n_runs runs all pass
        the harness's frame-0 visibility screen."""
        redraw = 0
        while True:
            sim_seed = derive_seed(self.seed, self.salt, i, redraw)
            visible = self.frame0_visible(sim_seed, n_runs)
            if visible >= self.min_visible:
                return sim_seed
            self.redrawn.append({"call": i, "seed": sim_seed, "frame0_visible": visible})
            redraw += 1

    def stage(self, i):
        """Choose unit i's seed; not timed."""
        if i not in self.call_seeds:
            self.call_seeds[i] = self._screened_seed(i, self.runs_per_call)

    def _call(self, sim, workers):
        return self.rp.harness.monte_carlo(
            sim,
            rig_overlap=self.rig_overlap,
            rig_nonoverlap=self.rig_nonoverlap,
            tuning=self.tuning,
            pipeline_cfg=self.pcfg,
            workers=workers,
            min_visible=self.min_visible,
        )

    def unit(self, i):
        self.stage(i)
        sim = self.sim.with_overrides(seed=self.call_seeds[i])
        try:
            report = self._call(sim, self.workers)
        except self.rp.errors.RigPoseError as exc:
            return {"attempted": sim.n_runs, "valid": 0, "failed": sim.n_runs,
                    "report": None, "error": str(exc)}
        valid = report.metadata["valid_runs"]
        return {"attempted": sim.n_runs, "valid": valid, "failed": sim.n_runs - valid,
                "report": report}

    def trace_unit(self):
        sim = self.sim.with_overrides(seed=self.trace_seed, n_runs=self.trace_runs)
        report = self._call(sim, workers=1)
        valid = report.metadata["valid_runs"]
        return {"attempted": sim.n_runs, "valid": valid, "failed": sim.n_runs - valid,
                "report": report}

    def rc_errors(self, out) -> tuple[float, float]:
        return error_pair(out["report"].rows["RC"])

    def check_trace_unit(self, u) -> list:
        return [f"traced call: {m} row not finite"
                for m, row in u["report"].rows.items() if not np.all(np.isfinite(row))]

    def finish(self, units):
        """Aggregate the accuracy calls into one report, weighted by valid
        runs in call order, and check every call's report."""
        harness = self.rp.harness
        checks = {"report_rows_finite": True, "run_accounting": True}
        problems = []
        failed_runs = []
        for i, u in enumerate(units):
            if u["report"] is None:
                failed_runs.append({"call": i, "reason": u.get("error")})
                continue
            meta = u["report"].metadata
            failed_runs += [{"call": i, **f} for f in meta["failed_runs"]]
            if meta["valid_runs"] + len(meta["failed_runs"]) != meta["runs"]:
                checks["run_accounting"] = False
                problems.append(f"call {i}: valid and failed runs do not add up to runs")
            for m, row in u["report"].rows.items():
                if not np.all(np.isfinite(row)):
                    checks["report_rows_finite"] = False
                    problems.append(f"call {i}: {m} row not finite")

        sums = {m: np.zeros(6) for m in harness.ALL_METHODS}
        n_ok = 0
        for u in units[: self.min_units]:
            if u["report"] is None:
                continue
            v = u["report"].metadata["valid_runs"]
            for m in harness.ALL_METHODS:
                sums[m] += u["report"].rows[m] * v
            n_ok += v
        checks["accuracy_runs_valid"] = n_ok > 0
        rows = {m: sums[m] / max(n_ok, 1) for m in harness.ALL_METHODS}
        checks["accuracy_rows_finite"] = all(np.all(np.isfinite(r)) for r in rows.values())
        report = harness.ExperimentReport(methods=list(harness.ALL_METHODS), rows=rows,
                                          metadata={})
        csv_text = report.to_csv_text()
        extras = {
            "accuracy_runs": n_ok,
            "accuracy_seeds": [self.call_seeds[i] for i in range(self.min_units)],
            "redrawn_seeds": self.redrawn,
            "report_csv": csv_text,
            "report_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "failed_runs": failed_runs,
            "problems": problems,
        }
        return {"4cameras": rows["4cameras"], "RC": rows["RC"]}, checks, extras


class TracksReplay:
    """Closed loop, one client: each replay pushes one recorded paper-scale
    sequence through ``rigpose run-tracks`` for both layouts, with --truth.

    ``n_sequences`` sequences are recorded from distinct seeds; replays go
    round-robin over them. Each is also estimated in process once, and every
    replay's poses CSV must match that reference byte for byte.
    """

    workers = 1

    def __init__(self, rp, name, why, salt, n_sequences, min_visible):
        self.rp = rp
        self.name = name
        self.why = why
        self.salt = salt
        self.n_sequences = n_sequences
        self.min_visible = min_visible
        self.min_units = n_sequences

    def build(self):
        rp = self.rp
        self.sim = rp.simulate.SimConfig(n_points=10_000, n_frames=100, noise_sigma=0.5,
                                         n_runs=1, seed=0)
        self.pcfg = rp.pipeline.PipelineConfig()
        self.rig_overlap = rp.geometry.default_overlap_rig()
        self.rig_nonoverlap = rp.geometry.default_nonoverlap_rig()

    @property
    def epipolar_tol_px(self) -> float:
        return self.pcfg.epipolar_tol_px

    def stage(self, i):
        """Inputs are all recorded in prepare."""

    def _record(self, sim_seed, path_prefix):
        """Render one sequence and write its tracks and truth files; return
        the in-process reference poses CSV sha256 per layout, or None when
        frame 0 shows fewer than min_visible features in some camera (the
        harness's own validity rule)."""
        sm, pl = self.rp.simulate, self.rp.pipeline
        scene_rng, traj_rng, noise_ss = sm.run_streams(sm.run_seed_sequences(sim_seed, 1)[0])
        scene = sm.gen_scene(self.sim, scene_rng)
        traj = sm.gen_trajectory(self.sim, traj_rng)
        union, (map_non, map_over) = sm.build_union([self.rig_nonoverlap, self.rig_overlap])
        frames = sm.render_sequence(scene, traj, union, self.sim.noise_sigma, noise_ss)
        if min(sm.visible_counts(frames, frame=0)) < self.min_visible:
            return None
        pl.write_truth(path_prefix + "-truth.csv", traj)
        reference = {}
        for layout, cam_map in (("stereo", map_over), ("nonoverlap", map_non)):
            stream = sm.slice_stream(frames, cam_map)
            pl.write_tracks(f"{path_prefix}-{layout}-tracks.csv", stream)
            if layout == "stereo":
                by_method = {"stereo": pl.run_stereo_sequence(stream, self.rig_overlap)}
            else:
                by_method = pl.run_nonoverlap_sequence(stream, self.rig_nonoverlap)
            ref_path = f"{path_prefix}-{layout}-reference.csv"
            pl.write_poses(ref_path, by_method)
            reference[layout] = sha256_file(ref_path)
        return reference

    def prepare(self, seed, workdir, traced=False):
        """Record the sequences (one when traced: the traced unit replays
        sequence 0 only) and their in-process references."""
        geometry = self.rp.geometry
        self.seed = seed
        self.rig_paths = {
            "stereo": os.path.join(workdir, "rig-overlap.json"),
            "nonoverlap": os.path.join(workdir, "rig-nonoverlap.json"),
        }
        # Render and estimate in process with the rigs as run-tracks reads
        # them back: the JSON round trip moves rotation entries by an ulp.
        geometry.write_rig(self.rig_paths["stereo"], self.rig_overlap)
        geometry.write_rig(self.rig_paths["nonoverlap"], self.rig_nonoverlap)
        self.rig_overlap = geometry.read_rig(self.rig_paths["stereo"])
        self.rig_nonoverlap = geometry.read_rig(self.rig_paths["nonoverlap"])
        self.sequences = []
        skipped = 0
        attempt = 0
        want = 1 if traced else self.n_sequences
        while len(self.sequences) < want:
            sim_seed = derive_seed(seed, self.salt, attempt)
            prefix = os.path.join(workdir, f"seq{len(self.sequences)}")
            reference = self._record(sim_seed, prefix)
            attempt += 1
            if reference is None:
                skipped += 1
                continue
            self.sequences.append({"sim_seed": sim_seed, "prefix": prefix,
                                   "reference": reference})
        # Warm-up replay, untimed, so first-call costs stay out of the tail.
        warm = self._replay(0, "warmup")
        self.warmup_problems = self.check_trace_unit({"sequence": 0, "out": warm})
        return {"sequences": [s["sim_seed"] for s in self.sequences],
                "skipped_low_visibility": skipped}

    def _replay(self, s, tag):
        seq = self.sequences[s]
        out = {}
        for layout in ("stereo", "nonoverlap"):
            poses = f"{seq['prefix']}-{layout}-poses-{tag}.csv"
            argv = [
                "run-tracks", "--layout", layout,
                "--rig", self.rig_paths[layout],
                "--tracks", f"{seq['prefix']}-{layout}-tracks.csv",
                "--out", poses,
                "--truth", f"{seq['prefix']}-truth.csv",
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.rp.cli.main(argv)
            out[layout] = (code, buf.getvalue(), poses)
        return out

    def unit(self, i):
        s = i % len(self.sequences)
        return self._unit(s, self._replay(s, f"r{i}"))

    def trace_unit(self):
        return self._unit(0, self._replay(0, "trace"))

    @staticmethod
    def _unit(s, out):
        failed = sum(code != 0 for code, _, _ in out.values())
        return {"attempted": len(out), "valid": int(failed == 0), "failed": failed,
                "sequence": s, "out": out}

    def rc_errors(self, out) -> tuple[float, float]:
        return error_pair(parse_truth_rows(out["out"]["nonoverlap"][1])["RC"])

    def _check_replay(self, u, first_stdout, checks, problems, label):
        seq = self.sequences[u["sequence"]]
        for layout, (code, stdout, poses) in u["out"].items():
            if code != 0:
                checks["exit_codes_zero"] = False
                problems.append(f"{label} {layout}: exit code {code}")
                continue
            if sha256_file(poses) != seq["reference"][layout]:
                checks["poses_match_in_process"] = False
                problems.append(f"{label} {layout}: poses CSV differs from in-process run")
            os.remove(poses)
            key = (u["sequence"], layout)
            if first_stdout.setdefault(key, stdout) != stdout:
                checks["replays_repeat"] = False
                problems.append(f"{label} {layout}: error rows differ from first replay")

    def check_trace_unit(self, u) -> list:
        checks, problems = {}, []
        self._check_replay(u, {}, checks, problems, "traced replay")
        return problems

    def finish(self, units):
        checks = {"exit_codes_zero": True, "report_rows_finite": True,
                  "poses_match_in_process": True, "replays_repeat": True,
                  "warmup_replay_ok": not self.warmup_problems}
        problems = list(self.warmup_problems)
        first_stdout = {}
        for i, u in enumerate(units):
            self._check_replay(u, first_stdout, checks, problems, f"replay {i}")

        rows_4c, rows_rc = [], []
        for s in range(len(self.sequences)):
            stereo = first_stdout.get((s, "stereo"))
            non = first_stdout.get((s, "nonoverlap"))
            if stereo is None or non is None:
                checks["exit_codes_zero"] = False
                problems.append(f"sequence {s} never replayed successfully")
                continue
            rows = {**parse_truth_rows(stereo), **parse_truth_rows(non)}
            for m, row in rows.items():
                if not all(math.isfinite(x) for x in row):
                    checks["report_rows_finite"] = False
                    problems.append(f"sequence {s}: {m} row not finite")
            rows_4c.append(rows["stereo"])
            rows_rc.append(rows["RC"])
        if len(rows_4c) < len(self.sequences):
            nan = np.full(6, np.nan)
            return {"4cameras": nan, "RC": nan}, checks, {"problems": problems}
        report_text = "".join(first_stdout[(s, lay)] for s in range(len(self.sequences))
                              for lay in ("stereo", "nonoverlap"))
        extras = {
            "sequence_seeds": [s["sim_seed"] for s in self.sequences],
            "poses_sha256": {f"seq{i}-{lay}": seq["reference"][lay]
                             for i, seq in enumerate(self.sequences)
                             for lay in ("stereo", "nonoverlap")},
            "report_csv": report_text,
            "report_sha256": hashlib.sha256(report_text.encode()).hexdigest(),
            "problems": problems,
        }
        rows = {"4cameras": np.mean(rows_4c, axis=0), "RC": np.mean(rows_rc, axis=0)}
        return rows, checks, extras


def parse_truth_rows(stdout: str) -> dict:
    """Rows of the `method,tx,...` error table that run-tracks prints."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines or lines[0] != "method," + ",".join(PARAMS):
        raise ValueError(f"unexpected run-tracks output: {stdout[:200]!r}")
    rows = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        rows[parts[0]] = [float(x) for x in parts[1:]]
    return rows


def make_workloads(rp) -> dict:
    """The three workloads, keyed by name (see perfbench/METRICS.md)."""
    return {
        "desk_mc": MonteCarlo(
            rp, "desk_mc",
            "acceptance desk config, 1 worker: ~45 features per camera, per-call "
            "overhead dominates, so geometry and batching changes show first",
            salt=1, n_points=2000, pipeline_kwargs={"redetect_threshold": 20},
            min_visible=20, workers=1, runs_per_call=3, accuracy_calls=10, trace_runs=3,
        ),
        "paper_mc": MonteCarlo(
            rp, "paper_mc",
            "paper scale, 2 workers: 5x the features, rendering and the process "
            "pool carry real weight, and batching memory shows in peak RSS",
            salt=2, n_points=10_000, pipeline_kwargs={}, min_visible=100,
            workers=2, runs_per_call=4, accuracy_calls=6, trace_runs=2,
        ),
        "tracks_replay": TracksReplay(
            rp, "tracks_replay",
            "single-sequence run-tracks path, no rendering and no pool: a Monte "
            "Carlo-only speed-up must leave it unchanged",
            salt=3, n_sequences=6, min_visible=100,
        ),
    }
