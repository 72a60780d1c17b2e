#!/usr/bin/env python3
"""Compare BENCH_*.json bench records against committed baselines.

Each bench harness writes `BENCH_<name>.json` ({"bench": ..., "records":
[...]}) and the repository commits a `BENCH_<name>.baseline.json` next to
the sources. This tool diffs a fresh run against that baseline and fails
(exit 1) on regressions, so perf PRs are gated on measured numbers
instead of grep-for-a-flag:

  - fields ending in `wall_ms` are wall-clock times, lower is better:
    a regression is current > baseline * (1 + --tolerance).
    `--no-wall` skips them (CI machines are not the baseline machine).
  - fields ending in `_speedup` or `_reduction` are ratios of two walls
    measured in the same run, higher is better and much more stable
    across machines: a regression is current < baseline *
    (1 - --ratio-tolerance).
  - fields ending in `_overhead_pct` are percentage costs relative to a
    same-run baseline leg (e.g. telemetry on vs off), lower is better
    and already machine-normalised: a regression is current >
    baseline + --overhead-slack percentage points.
  - booleans, strings, and configuration echoes (counts, sizes) are
    ignored.

Records are matched by their `"id"` field when both sides have one, by
position otherwise. Records present on only one side are reported but
are not failures (smoke runs may skip expensive layers).

Usage:
  tools/bench_diff.py [--no-wall] [--tolerance F] [--ratio-tolerance F]
                      [--baseline-dir DIR] CURRENT.json [CURRENT.json...]

The baseline for CURRENT `<dir>/BENCH_x.json` is
`<baseline-dir>/BENCH_x.baseline.json`; --baseline-dir defaults to the
repository root (the parent of this script's directory).
"""

import argparse
import json
import os
import sys


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    return data.get("records", [])


def match_records(current, baseline):
    """Pairs records by "id" when available, by index otherwise.

    Returns (pairs, only_current, only_baseline) where pairs is a list of
    (label, current_record, baseline_record).
    """
    if all("id" in r for r in current) and all("id" in r for r in baseline):
        base_by_id = {r["id"]: r for r in baseline}
        cur_by_id = {r["id"]: r for r in current}
        pairs = [(rid, cur_by_id[rid], base_by_id[rid])
                 for rid in cur_by_id if rid in base_by_id]
        only_cur = [rid for rid in cur_by_id if rid not in base_by_id]
        only_base = [rid for rid in base_by_id if rid not in cur_by_id]
        return pairs, only_cur, only_base
    n = min(len(current), len(baseline))
    pairs = [("#%d" % i, current[i], baseline[i]) for i in range(n)]
    only_cur = ["#%d" % i for i in range(n, len(current))]
    only_base = ["#%d" % i for i in range(n, len(baseline))]
    return pairs, only_cur, only_base


def is_number(value):
    # bool is an int subclass in Python; flags like skew_improved must
    # not be compared numerically.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_pair(label, cur, base, args, report):
    """Appends (severity, message) entries to report; returns #failures."""
    failures = 0
    for key, base_val in base.items():
        if not is_number(base_val):
            continue
        cur_val = cur.get(key)
        if not is_number(cur_val):
            if key in cur:
                continue
            report.append(("warn", "%s: field %r missing from current run"
                           % (label, key)))
            continue
        if key.endswith("wall_ms"):
            if args.no_wall:
                continue
            limit = base_val * (1.0 + args.tolerance)
            if cur_val > limit and cur_val - base_val > args.min_wall_ms:
                failures += 1
                report.append(("FAIL", "%s: %s %.3f -> %.3f ms (+%.1f%%, "
                               "limit +%.0f%%)"
                               % (label, key, base_val, cur_val,
                                  100.0 * (cur_val / base_val - 1.0),
                                  100.0 * args.tolerance)))
            else:
                report.append(("ok", "%s: %s %.3f -> %.3f ms"
                               % (label, key, base_val, cur_val)))
        elif key.endswith("_overhead_pct"):
            limit = base_val + args.overhead_slack
            if cur_val > limit:
                failures += 1
                report.append(("FAIL", "%s: %s %+.1f%% -> %+.1f%% (limit "
                               "%+.1f%%: baseline + %.0f point slack)"
                               % (label, key, base_val, cur_val, limit,
                                  args.overhead_slack)))
            else:
                report.append(("ok", "%s: %s %+.1f%% -> %+.1f%%"
                               % (label, key, base_val, cur_val)))
        elif key.endswith("_speedup") or key.endswith("_reduction"):
            limit = base_val * (1.0 - args.ratio_tolerance)
            if cur_val < limit:
                failures += 1
                report.append(("FAIL", "%s: %s %.3f -> %.3f (-%.1f%%, "
                               "limit -%.0f%%)"
                               % (label, key, base_val, cur_val,
                                  100.0 * (1.0 - cur_val / base_val),
                                  100.0 * args.ratio_tolerance)))
            else:
                report.append(("ok", "%s: %s %.3f -> %.3f"
                               % (label, key, base_val, cur_val)))
    return failures


def diff_file(current_path, args):
    name = os.path.basename(current_path)
    if not name.endswith(".json") or name.endswith(".baseline.json"):
        print("bench_diff: skipping %s (not a bench record)" % current_path)
        return 0
    baseline_path = os.path.join(args.baseline_dir,
                                 name[:-len(".json")] + ".baseline.json")
    if not os.path.exists(baseline_path):
        print("bench_diff: no baseline for %s (expected %s) — skipping"
              % (name, baseline_path))
        return 0

    current = load_records(current_path)
    baseline = load_records(baseline_path)
    pairs, only_cur, only_base = match_records(current, baseline)

    report = []
    failures = 0
    for label, cur, base in pairs:
        failures += compare_pair(label, cur, base, args, report)
    for rid in only_cur:
        report.append(("warn", "record %s only in current run" % rid))
    for rid in only_base:
        report.append(("warn", "record %s only in baseline" % rid))

    print("== %s vs %s ==" % (current_path, baseline_path))
    for severity, message in report:
        if severity == "ok" and not args.verbose:
            continue
        print("  [%s] %s" % (severity, message))
    print("  %d record pair(s), %d regression(s)" % (len(pairs), failures))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json against committed baselines")
    parser.add_argument("currents", nargs="+", metavar="CURRENT.json")
    parser.add_argument("--baseline-dir",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))),
                        help="directory holding *.baseline.json "
                             "(default: repository root)")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative wall-clock regression "
                             "(default 0.15)")
    parser.add_argument("--ratio-tolerance", type=float, default=0.25,
                        help="allowed relative drop in _speedup/_reduction "
                             "fields (default 0.25)")
    parser.add_argument("--overhead-slack", type=float, default=10.0,
                        help="allowed absolute rise in _overhead_pct "
                             "fields, in percentage points (default 10; "
                             "tail percentiles are noisy on shared CI)")
    parser.add_argument("--min-wall-ms", type=float, default=1.0,
                        help="ignore wall regressions smaller than this "
                             "many ms (timer noise floor; default 1.0)")
    parser.add_argument("--no-wall", action="store_true",
                        help="skip wall_ms fields (cross-machine runs)")
    parser.add_argument("--verbose", action="store_true",
                        help="print passing comparisons too")
    args = parser.parse_args()

    failures = sum(diff_file(path, args) for path in args.currents)
    if failures:
        print("bench_diff: %d regression(s)" % failures)
        return 1
    print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
