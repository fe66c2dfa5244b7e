"""Command-line interface.

Subcommands:

  simulate   - run the Monte Carlo comparison and write the report
  run-tracks - offline estimation from a tracks CSV
  selftest   - run the noiseless oracle checks

Exit codes: 0 success, 1 input error (bad flags or malformed files),
2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, pipeline
from .errors import InputError, RigPoseError
from .geometry import read_rig
from .simulate import SimConfig


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="rigpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run the Monte Carlo comparison")
    sim.add_argument("--config", help="harness config JSON")
    sim.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    sim.add_argument("--frames", type=int, help="frames per sequence")
    sim.add_argument("--seed", type=int, help="master seed")
    sim.add_argument("--out", help="report CSV path")
    sim.add_argument("--json", dest="json_out", help="report JSON path")
    sim.add_argument("--methods", help="comma-separated subset of methods")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker count")

    run = sub.add_parser("run-tracks", help="offline estimation from recorded tracks")
    run.add_argument("--layout", choices=["stereo", "nonoverlap"], required=True)
    run.add_argument("--rig", required=True, help="rig JSON file")
    run.add_argument("--tracks", required=True, help="tracks CSV (cam,frame,feature,u,v)")
    run.add_argument("--out", required=True, help="poses CSV output")
    run.add_argument("--truth", help="optional ground-truth CSV for an error report")
    run.add_argument("--config", help="optional harness config JSON for tuning/thresholds")
    run.add_argument("--diagnostics", help="optional per-frame diagnostics JSONL output")

    sub.add_parser("selftest", help="run the noiseless oracle checks")
    return parser


def _cmd_simulate(args) -> int:
    if args.config:
        cfg = harness.load_config(args.config)
    else:
        cfg = {
            "sim": SimConfig(),
            "rig_overlap": None,
            "rig_nonoverlap": None,
            "tuning": None,
            "pipeline": None,
            "min_visible": 100,
        }
    sim = cfg["sim"]
    overrides = {}
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    if args.frames is not None:
        overrides["n_frames"] = args.frames
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        sim = sim.with_overrides(**overrides)
    methods = args.methods.split(",") if args.methods else None

    report = harness.monte_carlo(
        sim,
        rig_overlap=cfg["rig_overlap"],
        rig_nonoverlap=cfg["rig_nonoverlap"],
        tuning=cfg["tuning"],
        pipeline_cfg=cfg["pipeline"],
        methods=methods,
        workers=args.workers,
        min_visible=cfg["min_visible"],
    )
    if args.out:
        report.write_csv(args.out)
    if args.json_out:
        report.write_json(args.json_out)
    print(report.to_csv_text(), end="")
    meta = report.metadata
    print(
        f"# runs={meta['valid_runs']}/{meta['runs']} "
        f"wall={meta['wall_time_s']}s hash={meta['config_hash']}",
        file=sys.stderr,
    )
    return 0


def _cmd_run_tracks(args) -> int:
    rig = read_rig(args.rig)
    frames = pipeline.read_tracks(args.tracks, len(rig))
    if args.config:
        cfg = harness.load_config(args.config)
        tuning, pcfg = cfg["tuning"], cfg["pipeline"]
    else:
        tuning, pcfg = None, None

    if args.layout == "stereo":
        if rig.layout != "overlapping":
            raise InputError("--layout stereo needs an overlapping rig file")
        series = pipeline.run_stereo_sequence(frames, rig, tuning=tuning, pcfg=pcfg)
        by_method = {"stereo": series}
    else:
        if rig.layout != "non-overlapping":
            raise InputError("--layout nonoverlap needs a non-overlapping rig file")
        by_method = pipeline.run_nonoverlap_sequence(frames, rig, tuning=tuning, pcfg=pcfg)

    pipeline.write_poses(args.out, by_method)
    if args.diagnostics:
        pipeline.write_diagnostics(args.diagnostics, by_method)
    if args.truth:
        truth = pipeline.read_truth(args.truth)
        errors = {method: pipeline.pose_error_report(series, truth)
                  for method, series in by_method.items()}
        print("method," + ",".join(harness.PARAM_NAMES))
        for method, row in errors.items():
            print(method + "," + ",".join(f"{x:.6g}" for x in row))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "run-tracks":
            return _cmd_run_tracks(args)
        if args.command == "selftest":
            from .selftest import run_selftest

            return 0 if run_selftest() else 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RigPoseError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
