#!/usr/bin/env python3
"""Prints where the time went in a mitra `--trace` file. Stdlib only.

Usage:
    trace_summary.py TRACE.json [TRACE.json ...] [--top N]

Reads the Chrome trace_event JSON that `--trace FILE` writes and sums its
complete (`"ph": "X"`) events per span name:

  - busy: the sum of the span's durations;
  - self: busy minus the durations of the spans nested directly inside it
    on the same thread (so `synth/phase2` self time excludes the
    `setcover/solve` and `qm/minimize` calls it makes).

Self times add up to the traced time of every thread's root spans. Rows
are sorted by self time, largest first. Events of other phases
(metadata, instants) are ignored.

Exit code 0 on success; 1 when a file is unreadable, is not a trace, or
holds a malformed complete event, with one line per problem on stderr.
"""

import argparse
import json
import sys


class TraceError(Exception):
    pass


def load_spans(path):
    """Returns [(tid, start_ns, dur_ns, depth, name)] for the "X" events."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise TraceError(f"{path}: unreadable or invalid JSON: {e}")
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise TraceError(f"{path}: no traceEvents list")
    spans = []
    for i, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            raise TraceError(f"{path}: event {i} is not an object")
        if event.get("ph") != "X":
            continue
        name, ts, dur = event.get("name"), event.get("ts"), event.get("dur")
        tid = event.get("tid", 0)
        numbers = (ts, dur, tid)
        if (not isinstance(name, str)
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in numbers)
                or ts < 0 or dur < 0):
            raise TraceError(f"{path}: event {i} is not a well-formed complete "
                             f"event: {json.dumps(event)[:120]}")
        depth = (event.get("args") or {}).get("depth", 0)
        if isinstance(depth, bool) or not isinstance(depth, int):
            depth = 0
        # Timestamps are microseconds with nanosecond decimals.
        spans.append((tid, round(ts * 1000), round(dur * 1000), depth, name))
    return spans


def summarize(spans):
    """name -> [count, self_ns, busy_ns]."""
    totals = {}

    def close(span, child_ns):
        row = totals.setdefault(span[4], [0, 0, 0])
        row[0] += 1
        row[1] += span[2] - min(child_ns, span[2])
        row[2] += span[2]

    # Per thread, in start order (outer span first on ties), a stack of
    # open spans; each span's duration is charged to its innermost open
    # ancestor as child time.
    spans = sorted(spans, key=lambda s: (s[0], s[1], s[3], -s[2]))
    stack = []  # [span, child_ns]
    tid = None
    for span in spans:
        if span[0] != tid:
            for open_span, child_ns in stack:
                close(open_span, child_ns)
            stack = []
            tid = span[0]
        while stack and stack[-1][0][1] + stack[-1][0][2] <= span[1]:
            close(*stack.pop())
        if stack:
            stack[-1][1] += span[2]
        stack.append([span, 0])
    for open_span, child_ns in stack:
        close(open_span, child_ns)
    return totals


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("traces", nargs="+", metavar="TRACE.json")
    parser.add_argument("--top", type=int, default=0,
                        help="print only the N spans with the most self time")
    args = parser.parse_args(argv)

    status = 0
    for path in args.traces:
        try:
            totals = summarize(load_spans(path))
        except TraceError as e:
            print(f"trace_summary: {e}", file=sys.stderr)
            status = 1
            continue
        rows = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
        if args.top > 0:
            rows = rows[:args.top]
        width = max([len("span")] + [len(name) for name, _ in rows])
        print(f"== {path}")
        print(f"{'span':<{width}}  {'count':>8}  {'self_s':>10}  {'busy_s':>10}")
        for name, (count, self_ns, busy_ns) in rows:
            print(f"{name:<{width}}  {count:>8}  {self_ns / 1e9:>10.6f}  "
                  f"{busy_ns / 1e9:>10.6f}")
        total_self = sum(row[1] for row in totals.values())
        print(f"{'(total self)':<{width}}  {'':>8}  {total_self / 1e9:>10.6f}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
