#!/usr/bin/env python3
"""Compare the JSON row files the benches write (--json).

Two modes:

  diff A B --strip KEY...   Drop the named keys (host timing) from
                            every row of both documents, then require
                            the documents to be identical. Prints the
                            drifted rows and exits 1 on a difference.

  gate CUR BASE             events_per_sec of every config row in CUR
                            against the same config in BASE: below
                            0.5x warns, below 0.35x fails with exit 1.

Messages are templates so each caller keeps its own wording:
--ok takes {rows} (row count); gate --fail-message takes {n}
(failing configs), {threshold} and {failed} (their names).
--missing-ok turns a missing second file (the committed golden or
baseline) into a skip with exit 0.

Examples:
  tools/bench_rows.py diff run1.json run2.json \\
      --strip wall_ms events_per_sec config_wall_ms threads \\
      --ok "deterministic ({rows} rows)" --fail "rows differ"
  tools/bench_rows.py gate BENCH_simperf.json ../BENCH_simperf.json
"""

import argparse
import json
import os
import sys

FAIL_BELOW, WARN_BELOW = 0.35, 0.5


def load(path, strip=()):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        for key in strip:
            row.pop(key, None)
    return doc


def missing(path, what):
    if os.path.exists(path):
        return False
    print(f"no committed {what}; skipping compare")
    return True


def diff(args):
    if args.missing_ok and missing(args.b, "golden"):
        return 0
    a = load(args.a, args.strip)
    b = load(args.b, args.strip)
    if a == b:
        print(args.ok.format(rows=len(a["rows"])))
        return 0
    for i, (ra, rb) in enumerate(zip(a["rows"], b["rows"])):
        if ra != rb:
            print(f"::error title={args.title}::row {i} drifted:\n"
                  f"  got      {ra}\n  expected {rb}")
    if len(a["rows"]) != len(b["rows"]):
        print(f"::error title={args.title}::row count "
              f"{len(a['rows'])} != {len(b['rows'])}")
    sys.exit(args.fail)


def gate(args):
    if args.missing_ok and missing(args.base, "baseline"):
        return 0
    cur = {r["config"]: r for r in load(args.cur)["rows"]}
    base = {r["config"]: r for r in load(args.base)["rows"]}
    failed = []
    for cfg, row in cur.items():
        b = base.get(cfg)
        if not b:
            continue
        ratio = row["events_per_sec"] / b["events_per_sec"]
        line = (f"{cfg}: {row['events_per_sec']:.0f} ev/s "
                f"({ratio:.2f}x of committed baseline)")
        print(line)
        if ratio < FAIL_BELOW:
            print(f"::error title={args.title}::{line}")
            failed.append(cfg)
        elif ratio < WARN_BELOW:
            print(f"::warning title={args.title}::{line}")
    if failed:
        sys.exit(args.fail_message.format(
            n=len(failed), threshold=FAIL_BELOW, failed=failed))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_subparsers(dest="mode", required=True)

    d = modes.add_parser("diff", help="timing-stripped row identity")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--strip", nargs="+", default=[], metavar="KEY",
                   help="row keys to drop before comparing")
    d.add_argument("--ok", default="identical ({rows} rows)")
    d.add_argument("--fail", default="rows differ")
    d.add_argument("--title", default="row-diff",
                   help="annotation title of the drifted-row lines")
    d.add_argument("--missing-ok", action="store_true")
    d.set_defaults(run=diff)

    g = modes.add_parser("gate", help="events/sec vs a baseline")
    g.add_argument("cur")
    g.add_argument("base")
    g.add_argument("--title", default="perf-gate")
    g.add_argument("--fail-message",
                   default="perf gate: {n} config(s) below {threshold}x "
                           "of the committed baseline: {failed}")
    g.add_argument("--missing-ok", action="store_true")
    g.set_defaults(run=gate)

    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
