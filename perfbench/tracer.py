"""In-memory span tracer that wraps rigpose's public functions from outside.

Each wrapped function is replaced at every module attribute that holds it,
so a caller that imported the name (``from .pipeline import lowe_pose``) and
a caller that looks it up on the module (``ekf.pose_update``) both reach the
wrapper. Nothing inside ``src/rigpose`` is edited.

A span records (name, start, end, parent span, pass id). A span's self time
is its duration minus the durations of its direct children; calls are
sequential in one thread, so children never overlap. Functions in
``COUNTED`` are counted only, because they run thousands of times per run
and a span each would cost more than the work.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

# Functions timed with a span: (module, function).
TIMED = [
    ("simulate", "render_sequence"),
    ("ekf", "pose_update"),
    ("ekf", "pose_predict"),
    ("ekf", "predicted_depths"),
    ("ekf", "pose_measurement_rows"),
    ("ekf", "structure_update_batch"),
    ("stereo", "epipolar_distances"),
    ("stereo", "triangulate_batch"),
    ("pipeline", "run_stereo_sequence"),
    ("pipeline", "run_nonoverlap_sequence"),
    ("pipeline", "lowe_pose"),
    ("pipeline", "pose_error_report"),
    ("pipeline", "read_tracks"),
    ("pipeline", "write_poses"),
    ("fusion", "fuse_pose"),
    ("harness", "monte_carlo"),
    ("cli", "main"),
]

# Functions only counted: (module, function).
COUNTED = [
    ("fusion", "local_to_body_pose"),
    ("geometry", "rot_from_angles"),
    ("geometry", "check_rotation"),
]

# Counters whose totals depend only on the inputs; two passes over the same
# inputs must agree on every one of them.
EVENT_COUNTERS = [
    "simulate.observations",
    "ekf.pose_update.rows",
    "ekf.pose_update.failed",
    "ekf.structure_update_batch.points",
    "stereo.epipolar_distances.pairs",
    "stereo.epipolar_distances.accepted",
    "stereo.triangulate_batch.attempted",
    "stereo.triangulate_batch.ok",
    "pipeline.lowe_pose.failed",
    "pipeline.retriangulations",
    "pipeline.redetections",
    "pipeline.ekf_steps",
    "pipeline.ekf_skips",
    "pipeline.read_tracks.rows",
    "fusion.fuse_pose.ill_conditioned",
]


def _n_observations(frames) -> int:
    return sum(len(ids) for frame in frames for ids, _ in frame)


class Tracer:
    """Collects spans and counters while installed; restores on exit."""

    def __init__(self, rigpose_modules: dict, epipolar_tol_px: float):
        self.mods = rigpose_modules
        self.tol = epipolar_tol_px
        self.names: list[str] = [f"{m}.{f}" for m, f in TIMED]
        self.spans: list[tuple] = []        # (name index, start, end, parent, pass)
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_id = -1
        self._patched: list[tuple] = []
        self._hooks = {
            "simulate.render_sequence": self._on_render,
            "ekf.pose_update": self._on_pose_update,
            "ekf.structure_update_batch": self._on_structure,
            "stereo.epipolar_distances": self._on_epipolar,
            "stereo.triangulate_batch": self._on_triangulate,
            "pipeline.run_stereo_sequence": self._on_stereo_series,
            "pipeline.run_nonoverlap_sequence": self._on_nonoverlap_series,
            "pipeline.read_tracks": self._on_read_tracks,
            "fusion.fuse_pose": self._on_fuse,
        }

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> int:
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rigpose" or mod_name.startswith("rigpose.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    n += 1
        return n

    def install(self) -> None:
        for index, (mod, fn) in enumerate(TIMED):
            original = getattr(self.mods[mod], fn)
            self._replace_everywhere(original, self._span_wrapper(index, original))
        for mod, fn in COUNTED:
            original = getattr(self.mods[mod], fn)
            self._replace_everywhere(original, self._count_wrapper(f"{mod}.{fn}", original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, index: int, fn):
        name = self.names[index]
        hook = self._hooks.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.pass_id)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks: counts read from arguments and results ---------

    def _on_render(self, args, kwargs, frames):
        self.counts["simulate.observations"] += _n_observations(frames)

    def _on_pose_update(self, args, kwargs, state):
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        self.counts["ekf.pose_update.rows"] += int(batch.n_rows)

    def _on_structure(self, args, kwargs, out):
        self.counts["ekf.structure_update_batch.points"] += len(out[0])

    def _on_epipolar(self, args, kwargs, dist):
        self.counts["stereo.epipolar_distances.pairs"] += len(dist)
        self.counts["stereo.epipolar_distances.accepted"] += int((dist <= self.tol).sum())

    def _on_triangulate(self, args, kwargs, out):
        self.counts["stereo.triangulate_batch.attempted"] += len(out[1])
        self.counts["stereo.triangulate_batch.ok"] += int(out[1].sum())

    def _on_stereo_series(self, args, kwargs, series):
        self.counts["pipeline.retriangulations"] += sum(
            1 for d in series.diagnostics if d.get("retriangulated")
        )
        steps = [m for m in series.methods if m in ("ekf", "ekf-skip")]
        self.counts["pipeline.ekf_steps"] += len(steps)
        self.counts["pipeline.ekf_skips"] += steps.count("ekf-skip")

    def _on_nonoverlap_series(self, args, kwargs, by_method):
        for name, series in by_method.items():
            if name == "RC":
                continue
            for d in series.diagnostics:
                self.counts["pipeline.redetections"] += bool(d.get("redetected"))
                if "method" in d:
                    self.counts["pipeline.ekf_steps"] += 1
                    self.counts["pipeline.ekf_skips"] += d["method"] == "ekf-skip"

    def _on_read_tracks(self, args, kwargs, frames):
        self.counts["pipeline.read_tracks.rows"] += _n_observations(frames)

    def _on_fuse(self, args, kwargs, result):
        self.counts["fusion.fuse_pose.ill_conditioned"] += bool(result.ill_conditioned)

    # -- passes and summaries ----------------------------------------------

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts.clear()
        self._pass_first_span = len(self.spans)

    def pass_summary(self) -> dict:
        """Calls, total and self seconds per timed function, plus every
        counter, for the spans recorded since start_pass."""
        first = self._pass_first_span
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = defaultdict(float)
        for slot in range(first, len(self.spans)):
            index, start, end, parent, _ = self.spans[slot]
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for slot in range(first, len(self.spans)):
            index, start, end, _, _ = self.spans[slot]
            self_time[index] += (end - start) - child.get(slot, 0.0)
        counts = {f"{m}.{f}.calls": 0 for m, f in COUNTED}
        counts.update({name: 0 for name in EVENT_COUNTERS})
        counts.update(self.counts)
        times = {}
        for i, name in enumerate(self.names):
            counts[name + ".calls"] = calls[i]
            times[name + ".total_s"] = total[i]
            times[name + ".self_s"] = self_time[i]
        return {"counts": counts, "times": times}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "pass"])
            for slot, (index, start, end, parent, pass_id) in enumerate(self.spans):
                writer.writerow([slot, self.names[index], f"{start:.9f}", f"{end:.9f}",
                                 parent, pass_id])
