#!/usr/bin/env python3
"""Compare the JSON row files the benches write (--json).

Two modes:

  diff A B --strip KEY...   Drop the named keys (host timing) from
                            every row of both documents, then require
                            the documents to be identical. Prints the
                            drifted rows and exits 1 on a difference.

  merge OUT IN... --strip KEY...
                            Write one document holding the rows of
                            every IN, each row tagged with its bench
                            ("bench": IN's bench name) and the named
                            keys dropped. Inputs are ordered by bench
                            name, so the shell's glob order does not
                            matter. --name sets the document's bench
                            name (default "paper"). This builds
                            BENCH_paper.json, BENCH_paper_full.json
                            and BENCH_serving.json.

diff's messages are templates so each caller keeps its own wording:
--ok takes {rows} (row count).

Examples:
  tools/bench_rows.py diff run1.json run2.json \\
      --strip wall_ms events_per_sec config_wall_ms threads \\
      --ok "deterministic ({rows} rows)" --fail "rows differ"
  tools/bench_rows.py merge BENCH_paper.json BENCH_fig*.json \\
      BENCH_table*.json BENCH_ablation*.json \\
      --strip wall_ms threads config_wall_ms
"""

import argparse
import json
import sys


def load(path, strip=()):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        for key in strip:
            row.pop(key, None)
    return doc


def diff(args):
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


def merge(args):
    docs = sorted((load(path, args.strip) for path in args.inputs),
                  key=lambda doc: doc["bench"])
    rows = [{"bench": doc["bench"], **row}
            for doc in docs for row in doc["rows"]]
    with open(args.out, "w") as f:
        f.write('{\n  "bench": "%s",\n  "rows": [\n' % args.name)
        f.write(",\n".join("    " + json.dumps(row) for row in rows))
        f.write("\n  ]\n}\n")
    print(f"wrote {args.out} ({len(rows)} rows from {len(docs)} benches)")
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
    d.set_defaults(run=diff)

    m = modes.add_parser("merge", help="tagged rows of several benches")
    m.add_argument("out")
    m.add_argument("inputs", nargs="+", metavar="IN")
    m.add_argument("--strip", nargs="+", default=[], metavar="KEY",
                   help="row keys to drop before merging")
    m.add_argument("--name", default="paper",
                   help="bench name of the merged document")
    m.set_defaults(run=merge)

    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
