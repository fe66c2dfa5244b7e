"""Command-line interface.

Subcommands:

  simulate   - run the Monte Carlo comparison and write the report
  run-tracks - offline estimation from a tracks CSV

Exit codes: 0 success, 1 input error (bad flags, malformed files, or sizes
that do not fit in memory), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, pipeline
from .errors import InputError, RigPoseError, check_output_paths
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
    return parser


def _cmd_simulate(args) -> int:
    check_output_paths([args.out, args.json_out], [args.config])
    cfg = harness.load_config(args.config) if args.config else {}
    flags = {"n_runs": args.runs, "n_frames": args.frames, "seed": args.seed}
    sim = cfg.pop("sim", SimConfig()).with_overrides(
        **{k: v for k, v in flags.items() if v is not None})
    methods = None if args.methods is None else args.methods.split(",")
    report = harness.monte_carlo(sim, methods=methods, workers=args.workers, **cfg)
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
    check_output_paths([args.out, args.diagnostics],
                       [args.tracks, args.rig, args.truth, args.config])
    rig = read_rig(args.rig)
    rig.check_layout("overlapping" if args.layout == "stereo" else "non-overlapping")
    obs = pipeline.read_tracks(args.tracks, len(rig))
    cfg = harness.load_config(args.config) if args.config else {}
    truth = pipeline.read_truth(args.truth) if args.truth else None
    pipeline.check_truth(truth, obs)

    tuning, pcfg = cfg.get("tuning"), cfg.get("pipeline_cfg")
    if args.layout == "stereo":
        by_method = {"stereo": pipeline.run_stereo_sequence(obs, rig, tuning=tuning, pcfg=pcfg)}
    else:
        by_method = pipeline.run_nonoverlap_sequence(obs, rig, tuning=tuning, pcfg=pcfg)
    # Scored before any output is written, so a sequence with no frame to
    # score leaves no poses behind.
    errors = {} if truth is None else {method: pipeline.pose_error_report(series, truth)
                                       for method, series in by_method.items()}

    pipeline.write_poses(args.out, by_method)
    if args.diagnostics:
        pipeline.write_diagnostics(args.diagnostics, by_method)
    if truth is not None:
        print("method," + ",".join(harness.PARAM_NAMES))
        for method, row in errors.items():
            print(method + "," + ",".join(f"{x:.6g}" for x in row))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_run_tracks(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # a size within the bounds that asks for more than the host has
        print(f"error: the input does not fit in memory: {exc}", file=sys.stderr)
        return 1
    except RigPoseError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
