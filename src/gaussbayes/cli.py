"""Command-line entry point: ``gaussbayes run <config>`` evaluates a sweep
and writes CSV; ``gaussbayes verify`` runs the release-gate suite.

Exit codes: 0 on success, 1 on configuration errors, 2 when any verify
criterion fails.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaussbayes")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a sweep config and write CSV")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--method", choices=("quadrature", "montecarlo"), default=None)
    run_p.add_argument("--samples", type=int, default=None)
    run_p.add_argument("--out", default=None, help="output CSV path")
    run_p.add_argument("--force-both-paths", action="store_true",
                       help="cross-check closed forms against the numeric engine")

    ver_p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    ver_p.add_argument("--suite", choices=("full", "fast"), default="full")
    ver_p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ver_p.add_argument("--out", default=None, help="write the report as CSV here")
    return parser


def _cmd_run(args) -> int:
    overrides = {key: value for key, value in
                 (("seed", args.seed), ("method", args.method), ("samples", args.samples))
                 if value is not None}
    if args.force_both_paths:
        overrides["force_both"] = True
    try:
        config = harness.load_config(args.config, overrides)
    except (OSError, harness.ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    records = harness.run(config)
    out = args.out or config.output or "results.csv"
    harness.write_csv(records, out)
    bad = sum(1 for r in records if r.status != "ok")
    total_time = sum(r.wall_time for r in records)
    print(f"wrote {len(records)} rows to {out} "
          f"({bad} flagged, {total_time:.1f}s compute)")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, args.seed)
    for line in verify.report_lines(results):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(verify.report_csv_lines(results)) + "\n")
        print(f"report written to {args.out}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
