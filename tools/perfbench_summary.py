#!/usr/bin/env python3
"""Render perfbench's per-layer host-time shares as a markdown table.

Reads the output of a traced whole-study benchmark run and prints every
``*.share`` metric of its last JSON line, largest first::

    python3 perfbench/run.py --workload chaos-fleet --seed 1 --seconds 5 --trace 1 > out.txt
    python3 tools/perfbench_summary.py --title chaos-fleet out.txt >> "$GITHUB_STEP_SUMMARY"

With no path it reads standard input.  Exits non-zero when the output has
no JSON line, or when that line carries no share metric (an untraced run).
"""

import argparse
import json
import sys


def last_json_line(text):
    """The benchmark's result object: its last line that parses as JSON."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the benchmark output")


def share_table(result, title):
    """Markdown table of the ``*.share`` metrics, largest share first."""
    shares = {
        name[: -len(".share")]: entry["value"]
        for name, entry in result["metrics"].items()
        if name.endswith(".share")
    }
    if not shares:
        raise ValueError("no *.share metrics: was the run traced (--trace 1)?")
    lines = [
        f"### Per-layer host-time shares: {title}",
        "",
        "| Layer | Share |",
        "| --- | ---: |",
    ]
    for layer, share in sorted(shares.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"| {layer} | {share:.3f} |")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", help="benchmark output (default: stdin)")
    parser.add_argument("--title", default="perfbench", help="table heading")
    args = parser.parse_args(argv)
    if args.path is None:
        text = sys.stdin.read()
    else:
        with open(args.path) as fh:
            text = fh.read()
    try:
        table = share_table(last_json_line(text), args.title)
    except (ValueError, KeyError) as exc:
        print(f"perfbench_summary: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
