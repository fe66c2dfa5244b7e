"""rigpose benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload desk_mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` it measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it wraps the package's public functions
(see tracer.py) and reports the per-layer metrics, the tracing overhead and
a count check. Every run checks the program's outputs, prints each metric
with its unit, writes a record with host and version details under
``.perfbench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. A failed output check
exits with code 1, a checkout without the package with code 2.

Metric definitions, the workloads' reasons and the layer-to-metric
predictions are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

from tracer import COUNTED, TIMED, Tracer
from workloads import error_pair, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MODULES = ["simulate", "stereo", "ekf", "pipeline", "fusion", "geometry", "harness",
           "cli", "errors"]

END_TO_END = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("replay_s_p50", "s"),
    ("replay_s_tail", "s"),
    ("peak_rss_mb", "MiB"),
    ("err_t_mm.4cameras", "mm"),
    ("err_rot_mrad.4cameras", "mrad"),
]

SETUP_REPEATS = 9
TAIL_BEYOND = 10


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for mod, fn in TIMED:
        names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.total_s", "s"),
                  (f"{mod}.{fn}.self_s", "s")]
    names += [(f"{mod}.{fn}.calls", "count") for mod, fn in COUNTED]
    names += [
        ("simulate.observations", "count"),
        ("ekf.pose_update.rows", "count"),
        ("ekf.pose_update.failed", "count"),
        ("ekf.structure_update_batch.points", "count"),
        ("stereo.epipolar_distances.accept_ratio", "ratio"),
        ("stereo.triangulate_batch.ok_ratio", "ratio"),
        ("pipeline.lowe_pose.failed", "count"),
        ("pipeline.retriangulations", "count"),
        ("pipeline.redetections", "count"),
        ("pipeline.ekf_skip_ratio", "ratio"),
        ("pipeline.read_tracks.rows", "count"),
        ("fusion.ill_conditioned_ratio", "ratio"),
        ("fusion.err_t_mm.RC", "mm"),
        ("fusion.err_rot_mrad.RC", "mrad"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.runs_per_s.untraced", "1/s"),
        ("trace.runs_per_s.traced", "1/s"),
        ("trace.replay_s_p50.untraced", "s"),
        ("trace.replay_s_p50.traced", "s"),
    ]
    return names


# ---------------------------------------------------------------------------
# Measurements shared by the workloads
# ---------------------------------------------------------------------------

def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: sorted index n - 11. Below 22 samples that index
    does not lie above the median, so the tail is not resolved and the
    median is reported, as percentile 50."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND
    if k <= (n - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * k / (n - 1)


# Host speed drifts by up to 1.7x within seconds on shared machines, and a
# run-long slow phase moves every timing alike. A fixed probe that does not
# touch rigpose runs before and after each timed unit; the unit's wall time
# is scaled by PROBE_REFERENCE_S over the mean of its two probes, so times
# read as seconds on a host where the probe takes PROBE_REFERENCE_S. Raw
# wall times and probe times are kept in the run record.
PROBE_REFERENCE_S = 0.055


class SpeedProbe:
    """A mix of small numpy calls in a Python loop, as rigpose's per-frame
    code makes, and vectorised work on 20,000 points, as rendering does.

    With ``parallel`` > 1 the probe runs in that many forked children at
    once, one per pool worker the workload uses, and reports their mean."""

    def __init__(self, parallel: int = 1):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.parallel = parallel
        self.pts = rng.normal(size=(64, 3)) + [0.0, 0.0, 4.0]
        self.big = rng.normal(size=(20_000, 3)) + [0.0, 0.0, 4.0]
        self.rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        self.samples: list[float] = []

    def _once(self) -> float:
        np, rot = self.np, self.rot
        start = time.perf_counter()
        acc = 0.0
        for _ in range(2400):
            r = rot @ rot.T
            p = (self.pts - r[0]) @ rot
            uv = np.stack([p[:, 0] / p[:, 2], p[:, 1] / p[:, 2]], axis=-1)
            acc += float(np.einsum("ni,ij->nj", uv, r[:2, :2])[0, 0])
            acc += len({i: i for i in range(30)})
        for _ in range(40):
            p = (self.big - rot[0]) @ rot
            u = np.where(p[:, 2] > 0.1, p[:, 0] / p[:, 2], -1.0)
            acc += float(np.flatnonzero(u > 0).size)
        return time.perf_counter() - start

    def _forked(self) -> float:
        children = []
        for _ in range(self.parallel):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                try:
                    os.write(write_fd, repr(self._once()).encode())
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        times = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as fh:
                times.append(float(fh.read()))
            os.waitpid(pid, 0)
        return sum(times) / len(times)

    def __call__(self) -> float:
        elapsed = self._once() if self.parallel == 1 else self._forked()
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns wall seconds into reference seconds."""
        return PROBE_REFERENCE_S / (0.5 * (before + after))


def import_probe_s() -> float:
    """Seconds to import rigpose in a fresh interpreter, measured inside it.
    numpy is imported first and not timed: its import is mostly file I/O
    that drifts with the host's page cache and that rigpose cannot change."""
    code = ("import time, numpy; t = time.perf_counter(); import rigpose; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def pool_probe_s(workers: int) -> float:
    """Seconds to start a process pool of `workers`, get one result from
    each worker and shut the pool down; the harness does this per call."""
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
    return time.perf_counter() - start


def measure_setup(workload) -> dict:
    """Median of SETUP_REPEATS for each set-up part; setup_s is their sum.
    A speed probe runs before each import and at the end, and setup_s is
    also given in reference seconds from the median of those probes."""
    probe = SpeedProbe()
    import_probe_s()                      # first import may compile bytecode
    imports = []
    for _ in range(SETUP_REPEATS):
        probe()
        imports.append(import_probe_s())
    parts = {"import_s": statistics.median(imports)}
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)
    parts["build_s"] = statistics.median(builds)
    if workload.workers > 1:
        parts["pool_start_s"] = statistics.median(
            pool_probe_s(workload.workers) for _ in range(SETUP_REPEATS))
    probe()
    parts["setup_s"] = sum(parts.values())
    parts["setup_s_reference"] = parts["setup_s"] * PROBE_REFERENCE_S / statistics.median(
        probe.samples)
    parts["probe_s"] = probe.samples
    return parts


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (a pool worker on paper_mc), in MiB; Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_record() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rigpose": getattr(sys.modules.get("rigpose"), "__version__", "unknown"),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def run_end_to_end(workload, seed, seconds, workdir):
    t0 = time.perf_counter()
    info = workload.prepare(seed, workdir)
    info["prepare_s"] = time.perf_counter() - t0
    probe = SpeedProbe(parallel=workload.workers)
    units, raw, latencies = [], [], []
    before = probe()
    start = time.perf_counter()
    i = 0
    while i < workload.min_units or time.perf_counter() - start < seconds:
        workload.stage(i)
        t0 = time.perf_counter()
        out = workload.unit(i)
        elapsed = time.perf_counter() - t0
        after = probe()
        raw.append(elapsed)
        latencies.append(elapsed * SpeedProbe.scale(before, after))
        units.append(out)
        before = after
        i += 1
    rss = peak_rss_mib()

    rows, checks, extras = workload.finish(units)
    setup = measure_setup(workload)
    valid = sum(u["valid"] for u in units)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    tail_value, tail_pct = tail(latencies)
    err_t, err_r = error_pair(rows["4cameras"])
    metrics = {
        "setup_s": setup["setup_s_reference"],
        "runs_per_s": valid / sum(latencies),
        "replay_s_p50": statistics.median(latencies),
        "replay_s_tail": tail_value,
        "peak_rss_mb": rss,
        "err_t_mm.4cameras": err_t,
        "err_rot_mrad.4cameras": err_r,
    }
    rc_t, rc_r = error_pair(rows["RC"])
    record = {
        "inputs": info,
        "setup": setup,
        "units": len(units),
        "unit_wall_s": raw,
        "unit_reference_s": latencies,
        "probe_s": probe.samples,
        "probe_reference_s": PROBE_REFERENCE_S,
        "runs_per_wall_s": valid / sum(raw),
        "replay_s_tail_percentile": tail_pct,
        "replay_s_samples": len(latencies),
        "valid_runs": valid,
        "failed_frac": failed / attempted,
        "err_t_mm.RC": rc_t,
        "err_rot_mrad.RC": rc_r,
        "checks": checks,
        **extras,
    }
    lines = [
        f"failed_frac = {failed / attempted!r} ratio ({failed}/{attempted})",
        f"replay_s_tail is percentile {tail_pct:.1f} of {len(latencies)} samples",
        f"err_t_mm.RC = {rc_t!r} mm (recorded, unbounded)",
        f"err_rot_mrad.RC = {rc_r!r} mrad (recorded, unbounded)",
        f"report_sha256 = {extras.get('report_sha256')}",
        f"redrawn_seeds = {len(extras.get('redrawn_seeds', []))} "
        "(failed the frame-0 visibility screen before timing)",
    ]
    return metrics, dict(END_TO_END), checks, attempted, failed, record, lines


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(workload, seed, seconds, workdir):
    info = workload.prepare(seed, workdir, traced=True)
    tracer = Tracer(vars(workload.rp), workload.epipolar_tol_px)
    untraced, traced, summaries = [], [], []
    problems = list(workload.warmup_problems)
    attempted = failed = 0
    runs_per_unit = None
    start = time.perf_counter()
    pass_id = 0
    while pass_id < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = workload.trace_unit()
        untraced.append(time.perf_counter() - t0)
        problems += workload.check_trace_unit(out)

        with tracer:
            tracer.start_pass(pass_id)
            t0 = time.perf_counter()
            traced_out = workload.trace_unit()
            traced.append(time.perf_counter() - t0)
            summaries.append(tracer.pass_summary())
        problems += workload.check_trace_unit(traced_out)
        runs_per_unit = out["valid"]
        for o in (out, traced_out):
            attempted += o["attempted"]
            failed += o["failed"]
        pass_id += 1
    rc_t, rc_r = workload.rc_errors(traced_out)

    counts = summaries[0]["counts"]
    mismatched = sorted(
        {k for s in summaries[1:] for k in counts.keys() | s["counts"].keys()
         if s["counts"].get(k, 0) != counts.get(k, 0)}
    )
    if mismatched:
        problems.append(f"counts differ between traced passes: {mismatched}")

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {}
    units = dict(per_layer_names())
    for name, unit in units.items():
        if name.endswith((".total_s", ".self_s")):
            metrics[name] = statistics.median(s["times"][name] for s in summaries)
        elif name in counts:
            metrics[name] = counts[name]
    metrics.update({
        "stereo.epipolar_distances.accept_ratio": ratio(
            "stereo.epipolar_distances.accepted", "stereo.epipolar_distances.pairs"),
        "stereo.triangulate_batch.ok_ratio": ratio(
            "stereo.triangulate_batch.ok", "stereo.triangulate_batch.attempted"),
        "pipeline.ekf_skip_ratio": ratio("pipeline.ekf_skips", "pipeline.ekf_steps"),
        "fusion.ill_conditioned_ratio": ratio(
            "fusion.fuse_pose.ill_conditioned", "fusion.fuse_pose.calls"),
        "fusion.err_t_mm.RC": rc_t,
        "fusion.err_rot_mrad.RC": rc_r,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.runs_per_s.untraced": runs_per_unit / statistics.median(untraced),
        "trace.runs_per_s.traced": runs_per_unit / statistics.median(traced),
        "trace.replay_s_p50.untraced": statistics.median(untraced),
        "trace.replay_s_p50.traced": statistics.median(traced),
    })
    missing = [n for n in units if n not in metrics]
    if missing:
        problems.append(f"per-layer metrics not produced: {missing}")
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    checks = {"counts_repeat": not mismatched, "outputs_ok": not problems}
    record = {
        "inputs": info,
        "passes": pass_id,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "counts": counts,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "problems": problems,
    }
    lines = [f"{pass_id} traced passes, {len(tracer.spans)} spans -> {record['spans_file']}"]
    return metrics, units, checks, attempted, failed, record, lines


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rigpose" / "__init__.py").is_file():
        print(f"error: no rigpose package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    rp = SimpleNamespace(**{name: importlib.import_module(f"rigpose.{name}")
                            for name in MODULES})
    workloads = make_workloads(rp)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    workload.build()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, units, checks, attempted, failed, record, lines = runner(
            workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update({
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": host_record(), **result,
    })
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value!r} {units[name]}")
    for line in lines:
        print(f"{workload.name} {line}")
    for name, ok in checks.items():
        print(f"{workload.name} check {name}: {'PASS' if ok else 'FAIL'}")
    for problem in record.get("problems", []):
        print(f"{workload.name} problem: {problem}")
    print(f"{workload.name} record -> {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
