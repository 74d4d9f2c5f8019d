#!/usr/bin/env python3
"""Perf gate: compare a bench --json output against a committed baseline.

Usage:
  bench/check_bench.py --baseline bench/baselines/BENCH_insert.json \
      --current BENCH_insert.json [--margin 1.0]

The gate exists to catch algorithmic collapses (an accidental O(n) on
the hot path, a lost batching win), not single-digit-percent drift:
CI hardware differs from the machine a baseline was recorded on, so
the margin is deliberately generous — a metric fails only when it is
worse than baseline by more than MARGIN (default 1.0 = 2x worse).
Refresh a baseline by copying the BENCH artifact of a healthy CI run
over the file in bench/baselines/.

Each metric has its own direction. A time suffix on the metric name
(_us, _ns) means lower-is-better and a rate suffix (_per_sec)
higher-is-better; a metric without either takes the file's "unit"
(*_per_sec higher-is-better, ns_* and anything else lower-is-better).
So the server file's srv_p99_us is a latency although the file's unit
is records_per_sec. Rows are matched by their
identity keys ("n" for the insert bench, mode+shards for the server
bench). Rows present on only one side are reported but never fail the
gate (new modes appear, old ones retire). The deliberate-overload
server row is skipped: its throughput measures admission refusal
speed under saturation, which is noise by design.
"""

import argparse
import json
import sys

# Keys that identify a row rather than measure it.
IDENTITY_KEYS = ("n", "mode", "shards", "dataset")
# Server-bench metrics that are environment counters, not performance.
NON_PERF_METRICS = {"fsyncs", "busy_rejections", "rss_delta_kb",
                    "srv_ingest_count"}
# Modes whose throughput is intentionally degenerate.
SKIP_MODES = {"socket_overload"}


def higher_is_better(name, unit):
    """Direction of one metric: its own suffix first, then the unit."""
    if name.endswith(("_us", "_ns")):
        return False
    if name.endswith("_per_sec"):
        return True
    return unit.endswith("_per_sec")


def row_key(row):
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def metrics(row):
    out = {}
    for key, value in row.items():
        if key in IDENTITY_KEYS or key in NON_PERF_METRICS:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--margin", type=float, default=1.0,
                        help="allowed fractional worsening (1.0 = 2x)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    unit = cur.get("unit", "")
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    cur_rows = {row_key(r): r for r in cur.get("rows", [])}

    failures = []
    print(f"perf gate: {cur.get('bench', '?')} ({unit}, "
          f"margin {args.margin:.0%})")
    for key, row in sorted(cur_rows.items()):
        label = " ".join(f"{k}={v}" for k, v in key)
        if row.get("mode") in SKIP_MODES:
            print(f"  skip  {label} (degenerate by design)")
            continue
        if key not in base_rows:
            print(f"  new   {label} (no baseline; not gated)")
            continue
        base_metrics = metrics(base_rows[key])
        for name, value in sorted(metrics(row).items()):
            if name not in base_metrics or base_metrics[name] <= 0:
                continue
            ref = base_metrics[name]
            ratio = value / ref
            higher = higher_is_better(name, unit)
            if higher:
                bad = value < ref / (1.0 + args.margin)
            else:
                bad = value > ref * (1.0 + args.margin)
            mark = "FAIL" if bad else "ok"
            print(f"  {mark:4}  {label} {name}: {value:.2f} "
                  f"vs baseline {ref:.2f} ({ratio:.2f}x, "
                  f"{'higher' if higher else 'lower'} is better)")
            if bad:
                failures.append(f"{label} {name}")
    for key in sorted(base_rows.keys() - cur_rows.keys()):
        label = " ".join(f"{k}={v}" for k, v in key)
        print(f"  gone  {label} (present in baseline only)")

    if failures:
        print(f"perf gate FAILED: {len(failures)} metric(s) worse than "
              f"baseline beyond the {args.margin:.0%} margin:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
