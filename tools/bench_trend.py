#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json files and gate on regressions.

Each BENCH_*.json (written by the bench harness's JsonEmitter under --json)
holds {"bench": name, "unit": "ns", "rows": [{"series", "x", "value"}, ...]}.
This tool matches rows across a baseline directory and a current directory by
(bench, series, x) and exits nonzero when any value regressed by more than the
threshold (default 15%). Lower is better for every series (values are ns).

Usage:
  bench_trend.py BASELINE_DIR CURRENT_DIR [--threshold PCT] [--warn-only]
                 [--prefix-threshold PREFIX=PCT ...]
  bench_trend.py BASELINE_DIR CURRENT_DIR --exact
  bench_trend.py --self-test

--exact gates a deterministic simulation against a committed baseline
(bench/baseline/): every bench with a file in BASELINE_DIR must reproduce
its rows exactly — a changed value, a new row or a removed row fails. A
change that moves a row regenerates the baseline in the same diff, so the
move is reviewed instead of thresholded. To make that review easy, each
changed row prints with its signed percent (tagged WORSE past +2%), and the
report ends with the count of rows more than 2% better or worse.

One global threshold fits nobody: microbenchmark points are stable to a few
percent while the OLTP macro rows are workload-noisy. --prefix-threshold
overrides the default for every (bench, series) whose "bench/series" name
starts with PREFIX; the longest matching prefix wins, so
  --prefix-threshold 'fig8_oltp/=30' --prefix-threshold 'fig8_oltp/chan_mem_workers=20'
loosens all fig8 series to 30% except the worker sweep at 20%.

New series (no baseline) and removed series are reported but never fail the
gate: trajectory files are expected to grow.

Counter deltas. The "metrics" object optionally embedded by --metrics holds
per-series (or whole-run) counter snapshots. Counters are workload-sized, so
they are NOT gated by default — but a drifting counter (retries, faults,
migrations) often regresses long before latency does. --counter-threshold
PREFIX=PCT opts specific counters into gating: every counter whose
"bench/series/counter" name starts with PREFIX fails the gate when its value
grew more than PCT percent over baseline (longest matching prefix wins;
shrinking is never a failure). All-digit name components (object ids like
fabric/17/calls) are normalized to '*' and summed, so ids that differ run to
run still match:
  --counter-threshold 'fabric_echo/fabric/*/retries=0'
fails on ANY new retry in the fabric_echo bench.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import sys
import tempfile


def bench_files(path):
    """Every BENCH_*.json in path, minus the Chrome traces sharing the prefix."""
    return [f for f in sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
            if not f.endswith(".trace.json")]


def load_file(f, rows):
    """Adds {(bench, series, x): value_ns} from one BENCH file to rows."""
    try:
        with open(f) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"warning: skipping unreadable {f}: {e}", file=sys.stderr)
        return rows
    bench = doc.get("bench")
    for row in doc.get("rows", []):
        try:
            key = (bench, row["series"], int(row["x"]))
            rows[key] = float(row["value"])
        except (KeyError, TypeError, ValueError) as e:
            print(f"warning: skipping malformed row in {f}: {e}", file=sys.stderr)
    return rows


def load_dir(path):
    """Returns {(bench, series, x): value_ns} over every BENCH_*.json in path."""
    rows = {}
    for f in bench_files(path):
        load_file(f, rows)
    return rows


# --exact's review aid: a changed row more than this far from its baseline
# counts as better or worse (every row is a cost, lower is better).
EXACT_REVIEW_PCT = 2.0


def run_exact(baseline_dir, current_dir):
    """--exact: every bench with a baseline file reproduces its rows exactly.

    Each changed row prints with its signed percent change, and the report
    ends with how many changed rows are better or worse than the baseline by
    more than EXACT_REVIEW_PCT; the worse ones are tagged WORSE. The count is
    for review only: any difference fails the gate."""
    files = bench_files(baseline_dir)
    if not files:
        print(f"error: no BENCH_*.json found in {baseline_dir}", file=sys.stderr)
        return 2
    failures = 0
    matched = 0
    better = worse = 0
    for f in files:
        baseline = load_file(f, {})
        cur_path = os.path.join(current_dir, os.path.basename(f))
        current = load_file(cur_path, {}) if os.path.exists(cur_path) else {}
        for key in sorted(set(baseline) | set(current)):
            base, cur = baseline.get(key), current.get(key)
            if base == cur:
                matched += 1
                continue
            failures += 1
            if base is None:
                print(f"  NEW       {fmt_key(key)}: {cur:.3f} ns")
            elif cur is None:
                print(f"  REMOVED   {fmt_key(key)} (baseline {base:.3f} ns)")
            elif base <= 0:
                print(f"  CHANGED   {fmt_key(key)}: {base:.3f} -> {cur:.3f} ns (n/a)")
            else:
                pct = (cur - base) / base * 100.0
                tag = ""
                if pct > EXACT_REVIEW_PCT:
                    worse += 1
                    tag = " WORSE"
                elif pct < -EXACT_REVIEW_PCT:
                    better += 1
                print(f"  CHANGED   {fmt_key(key)}: {base:.3f} -> {cur:.3f} ns "
                      f"({pct:+.2f}%){tag}")
    print(f"exact: {len(files)} bench(es), {matched} row(s) identical, {failures} differ")
    if failures:
        print("FAIL: rows differ from the committed baseline; a change that moves "
              "a row regenerates the baseline in the same diff")
    print(f"exact: {better} row(s) better and {worse} row(s) worse than the baseline "
          f"by more than {EXACT_REVIEW_PCT:g}%")
    return 1 if failures else 0


def normalize_counter(name):
    """Replaces all-digit path components (per-object ids) with '*'."""
    return "/".join("*" if part.isdigit() else part for part in name.split("/"))


def load_counters(path):
    """Returns {(bench, series_label, normalized_counter): summed value} from
    the metrics maps embedded by --metrics. Whole-run snapshots (no
    BeginSeries boundaries) use the empty series label. Counters whose ids
    normalize to the same name are summed."""
    counters = {}
    for f in bench_files(path):
        try:
            with open(f) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue  # load_dir already warned about this file
        bench = doc.get("bench")
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict):
            continue
        if isinstance(metrics.get("counters"), dict):
            snapshots = {"": metrics}  # whole-run shape
        else:
            snapshots = {k: v for k, v in metrics.items() if isinstance(v, dict)}
        for label, snap in snapshots.items():
            for cname, val in (snap.get("counters") or {}).items():
                key = (bench, label, normalize_counter(cname))
                try:
                    counters[key] = counters.get(key, 0.0) + float(val)
                except (TypeError, ValueError):
                    print(f"warning: non-numeric counter {cname} in {f}",
                          file=sys.stderr)
    return counters


def counter_name(key):
    """Flat name for prefix matching and display: bench/series/counter with
    the empty whole-run label elided."""
    return "/".join(part for part in key if part)


def compare_counters(baseline, current, counter_thresholds):
    """Returns [(key, base, cur, delta_pct, threshold_pct)] for every gated
    counter that grew past its threshold. Only counters matching a
    --counter-threshold prefix are gated; growth from a zero/small baseline
    is measured against max(base, 1) so new noise cannot divide by zero."""
    regressions = []
    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        if base is None:
            continue  # new counters never fail
        name = counter_name(key)
        best_len = -1
        thr = None
        for prefix, pct in counter_thresholds:
            if name.startswith(prefix) and len(prefix) > best_len:
                best_len = len(prefix)
                thr = pct
        if thr is None:
            continue  # not opted into gating
        delta_pct = (cur - base) / max(base, 1.0) * 100.0
        if delta_pct > thr:
            regressions.append((key, base, cur, delta_pct, thr))
    return regressions


def threshold_for(key, default_pct, prefix_thresholds):
    """Threshold for one (bench, series, x) key: longest matching prefix of
    "bench/series" wins; the default applies when nothing matches."""
    name = f"{key[0]}/{key[1]}"
    best_len = -1
    best_pct = default_pct
    for prefix, pct in prefix_thresholds:
        if name.startswith(prefix) and len(prefix) > best_len:
            best_len = len(prefix)
            best_pct = pct
    return best_pct


def compare(baseline, current, threshold_pct, prefix_thresholds=()):
    """Returns (regressions, improvements, new_keys, removed_keys).

    A regression is (key, base, cur, delta_pct, threshold_pct) with delta
    over that key's threshold (per-prefix override or the default).
    """
    regressions = []
    improvements = []
    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        if base is None:
            continue
        if base <= 0:
            continue  # degenerate baseline; nothing sensible to gate on
        thr = threshold_for(key, threshold_pct, prefix_thresholds)
        delta_pct = (cur - base) / base * 100.0
        if delta_pct > thr:
            regressions.append((key, base, cur, delta_pct, thr))
        elif delta_pct < -thr:
            improvements.append((key, base, cur, delta_pct, thr))
    new_keys = sorted(set(current) - set(baseline))
    removed_keys = sorted(set(baseline) - set(current))
    return regressions, improvements, new_keys, removed_keys


def fmt_key(key):
    bench, series, x = key
    return f"{bench}/{series}@{x}"


def run(baseline_dir, current_dir, threshold_pct, warn_only, prefix_thresholds=(),
        counter_thresholds=()):
    baseline = load_dir(baseline_dir)
    current = load_dir(current_dir)
    if not current:
        print(f"error: no BENCH_*.json found in {current_dir}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"no baseline data in {baseline_dir}; nothing to gate (first run?)")
        return 0
    regressions, improvements, new_keys, removed_keys = compare(
        baseline, current, threshold_pct, prefix_thresholds
    )
    counter_regressions = []
    if counter_thresholds:
        base_counters = load_counters(baseline_dir)
        cur_counters = load_counters(current_dir)
        counter_regressions = compare_counters(
            base_counters, cur_counters, counter_thresholds
        )
        gated = sum(
            1
            for key in cur_counters
            if key in base_counters
            and any(counter_name(key).startswith(p) for p, _ in counter_thresholds)
        )
        print(f"gating {gated} counter(s) against {len(counter_thresholds)} "
              "counter-threshold rule(s)")
    matched = len(set(baseline) & set(current))
    overrides = (
        ", ".join(f"{p}={t:.1f}%" for p, t in prefix_thresholds)
        if prefix_thresholds
        else "none"
    )
    print(
        f"compared {matched} series points "
        f"({len(new_keys)} new, {len(removed_keys)} removed), "
        f"threshold {threshold_pct:.1f}% (prefix overrides: {overrides})"
    )
    for key, base, cur, delta, thr in improvements:
        print(f"  improved  {fmt_key(key)}: {base:.1f} -> {cur:.1f} ns ({delta:+.1f}%)")
    for key in new_keys:
        print(f"  new       {fmt_key(key)}: {current[key]:.1f} ns")
    for key in removed_keys:
        print(f"  removed   {fmt_key(key)} (baseline {baseline[key]:.1f} ns)")
    for key, base, cur, delta, thr in regressions:
        print(
            f"  REGRESSED {fmt_key(key)}: {base:.1f} -> {cur:.1f} ns "
            f"({delta:+.1f}% > {thr:.1f}%)"
        )
    for key, base, cur, delta, thr in counter_regressions:
        print(
            f"  COUNTER   {counter_name(key)}: {base:.0f} -> {cur:.0f} "
            f"({delta:+.1f}% > {thr:.1f}%)"
        )
    failures = len(regressions) + len(counter_regressions)
    if failures:
        verdict = "warning" if warn_only else "FAIL"
        print(f"{verdict}: {len(regressions)} series and "
              f"{len(counter_regressions)} counter(s) regressed past their threshold")
        return 0 if warn_only else 1
    print("ok: no regressions")
    return 0


def parse_prefix_threshold(spec):
    """Parses one --prefix-threshold PREFIX=PCT argument."""
    prefix, sep, pct = spec.rpartition("=")
    if not sep or not prefix:
        raise ValueError(f"expected PREFIX=PCT, got {spec!r}")
    return prefix, float(pct)


def self_test():
    """Round-trips synthetic BENCH files through the full compare pipeline."""
    base_doc = {
        "bench": "t",
        "unit": "ns",
        "rows": [
            {"series": "a", "x": 1, "value": 100.0},
            {"series": "a", "x": 2, "value": 200.0},
            {"series": "gone", "x": 1, "value": 50.0},
        ],
    }
    base_doc["metrics"] = {
        "warm": {"counters": {"chan/1/sends": 100, "fabric/9/retries": 0}},
        "hot": {"counters": {"chan/1/sends": 50, "chan/2/sends": 50}},
    }
    cur_doc = {
        "bench": "t",
        "unit": "ns",
        "rows": [
            {"series": "a", "x": 1, "value": 110.0},  # +10%: within threshold
            {"series": "a", "x": 2, "value": 260.0},  # +30%: regression
            {"series": "fresh", "x": 1, "value": 10.0},
        ],
        "metrics": {
            # Same sends, but two retries appeared (zero baseline) and the
            # hot series' per-object send counters merged under chan/*/sends
            # grew 20%.
            "warm": {"counters": {"chan/1/sends": 100, "fabric/9/retries": 2}},
            "hot": {"counters": {"chan/3/sends": 70, "chan/4/sends": 50}},
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        bdir = os.path.join(tmp, "base")
        cdir = os.path.join(tmp, "cur")
        os.mkdir(bdir)
        os.mkdir(cdir)
        with open(os.path.join(bdir, "BENCH_t.json"), "w") as f:
            json.dump(base_doc, f)
        with open(os.path.join(cdir, "BENCH_t.json"), "w") as f:
            json.dump(cur_doc, f)
        baseline = load_dir(bdir)
        current = load_dir(cdir)
        assert len(baseline) == 3, baseline
        assert len(current) == 3, current
        regs, imps, new, removed = compare(baseline, current, 15.0)
        assert [r[0] for r in regs] == [("t", "a", 2)], regs
        assert abs(regs[0][3] - 30.0) < 1e-9, regs
        assert imps == [], imps
        assert new == [("t", "fresh", 1)], new
        assert removed == [("t", "gone", 1)], removed
        # The gate itself: strict fails, warn-only passes.
        assert run(bdir, cdir, 15.0, warn_only=False) == 1
        assert run(bdir, cdir, 15.0, warn_only=True) == 0
        assert run(bdir, cdir, 50.0, warn_only=False) == 0
        # Per-prefix thresholds: the override names "t/a" and lifts only
        # that series past its +30% delta; an unrelated prefix changes
        # nothing; the longest matching prefix wins over a shorter one.
        assert threshold_for(("t", "a", 2), 15.0, [("t/", 40.0)]) == 40.0
        assert threshold_for(("t", "a", 2), 15.0, [("u/", 40.0)]) == 15.0
        assert threshold_for(("t", "a", 2), 15.0, [("t/", 40.0), ("t/a", 25.0)]) == 25.0
        assert threshold_for(("t", "a", 2), 15.0, [("t/a", 25.0), ("t/", 40.0)]) == 25.0
        regs, _, _, _ = compare(baseline, current, 15.0, [("t/a", 40.0)])
        assert regs == [], regs
        regs, _, _, _ = compare(baseline, current, 15.0, [("other/", 40.0)])
        assert [r[0] for r in regs] == [("t", "a", 2)], regs
        assert run(bdir, cdir, 15.0, warn_only=False, prefix_thresholds=[("t/", 40.0)]) == 0
        assert run(bdir, cdir, 40.0, warn_only=False, prefix_thresholds=[("t/a", 15.0)]) == 1
        # CLI spec parsing, including '=' in the series name.
        assert parse_prefix_threshold("fig8_oltp/=30") == ("fig8_oltp/", 30.0)
        assert parse_prefix_threshold("t/a=25.5") == ("t/a", 25.5)
        for bad in ("noequals", "=30", "t/a="):
            try:
                parse_prefix_threshold(bad)
            except ValueError:
                pass
            else:
                raise AssertionError(f"{bad!r} should not parse")
        # Counter deltas: id components normalize to '*' and sum; gating is
        # opt-in per prefix; growth from a zero baseline divides by 1.
        assert normalize_counter("fabric/17/calls") == "fabric/*/calls"
        assert normalize_counter("os/sched/cpu3/runq_depth") == "os/sched/cpu3/runq_depth"
        bc = load_counters(bdir)
        cc = load_counters(cdir)
        assert bc[("t", "hot", "chan/*/sends")] == 100.0, bc
        assert cc[("t", "hot", "chan/*/sends")] == 120.0, cc
        assert counter_name(("t", "", "chan/*/sends")) == "t/chan/*/sends"
        # Ungated by default: no thresholds, no counter regressions.
        assert compare_counters(bc, cc, []) == []
        # Retries grew 0 -> 2 = +200% over max(base, 1).
        regs_c = compare_counters(bc, cc, [("t/warm/fabric/*/retries", 0.0)])
        assert len(regs_c) == 1 and abs(regs_c[0][3] - 200.0) < 1e-9, regs_c
        # The merged sends counter grew 20%; a 25% gate passes, 15% fails,
        # and the longest prefix wins.
        assert compare_counters(bc, cc, [("t/hot/chan", 25.0)]) == []
        regs_c = compare_counters(bc, cc, [("t/hot/chan", 15.0)])
        assert [r[0] for r in regs_c] == [("t", "hot", "chan/*/sends")], regs_c
        assert compare_counters(bc, cc, [("t/", 0.0), ("t/hot/chan", 25.0)]) != []
        assert compare_counters(
            bc, cc, [("t/warm", 500.0), ("t/hot/chan", 25.0)]) == []
        # Shrinking counters and new counters never fail.
        assert compare_counters(cc, bc, [("t/", 0.0)]) == []
        # End-to-end: a counter gate alone flips the exit code.
        assert run(bdir, cdir, 50.0, warn_only=False,
                   counter_thresholds=[("t/warm/fabric", 0.0)]) == 1
        assert run(bdir, cdir, 50.0, warn_only=True,
                   counter_thresholds=[("t/warm/fabric", 0.0)]) == 0
        assert run(bdir, cdir, 50.0, warn_only=False,
                   counter_thresholds=[("t/warm/fabric", 300.0)]) == 0
        # Missing baseline never fails (first CI run on a branch).
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        assert run(empty, cdir, 15.0, warn_only=False) == 0
        assert run(bdir, empty, 15.0, warn_only=False) == 2
        # --exact: identical rows pass; a changed value, a new row and a
        # removed row each fail; a bench with no baseline file is ignored.
        rows = base_doc["rows"][:2]
        for case, cur_rows in (
            ("same", rows),
            ("changed", [rows[0], dict(rows[1], value=200.001)]),
            ("new", rows + [{"series": "b", "x": 1, "value": 1.0}]),
            ("removed", rows[:1]),
        ):
            edir = os.path.join(tmp, "exact_" + case)
            os.makedirs(os.path.join(edir, "base"))
            os.makedirs(os.path.join(edir, "cur"))
            for sub, doc_rows in (("base", rows), ("cur", cur_rows)):
                with open(os.path.join(edir, sub, "BENCH_t.json"), "w") as f:
                    json.dump({"bench": "t", "unit": "ns", "rows": doc_rows}, f)
            with open(os.path.join(edir, "cur", "BENCH_host.json"), "w") as f:
                json.dump({"bench": "host", "unit": "ns",
                           "rows": [{"series": "wall", "x": 1, "value": 8.1}]}, f)
            want = 0 if case == "same" else 1
            got = run_exact(os.path.join(edir, "base"), os.path.join(edir, "cur"))
            assert got == want, (case, got)
        assert run_exact(empty, cdir) == 2
        assert run_exact(bdir, empty) == 1  # every baseline row removed
        # --exact's review aid: each CHANGED row carries its signed percent,
        # and the report ends with the rows more than 2% better or worse.
        # a@1 is 10% dearer, a@2 10% cheaper, b@1 1.5% dearer (under the
        # line), c@1 new; the exit code is the gate's alone.
        rdir = os.path.join(tmp, "exact_review")
        os.makedirs(os.path.join(rdir, "base"))
        os.makedirs(os.path.join(rdir, "cur"))
        review_rows = {
            "base": [("a", 1, 100.0), ("a", 2, 200.0), ("b", 1, 100.0)],
            "cur": [("a", 1, 110.0), ("a", 2, 180.0), ("b", 1, 101.5), ("c", 1, 5.0)],
        }
        for sub, doc_rows in review_rows.items():
            with open(os.path.join(rdir, sub, "BENCH_t.json"), "w") as f:
                json.dump({"bench": "t", "unit": "ns",
                           "rows": [{"series": r, "x": x, "value": v}
                                    for r, x, v in doc_rows]}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = run_exact(os.path.join(rdir, "base"), os.path.join(rdir, "cur"))
        lines = out.getvalue().splitlines()
        assert got == 1, got
        assert "  CHANGED   t/a@1: 100.000 -> 110.000 ns (+10.00%) WORSE" in lines, lines
        assert "  CHANGED   t/a@2: 200.000 -> 180.000 ns (-10.00%)" in lines, lines
        assert "  CHANGED   t/b@1: 100.000 -> 101.500 ns (+1.50%)" in lines, lines
        assert "  NEW       t/c@1: 5.000 ns" in lines, lines
        assert lines[-1] == ("exact: 1 row(s) better and 1 row(s) worse than the "
                             "baseline by more than 2%"), lines
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = run_exact(os.path.join(rdir, "base"), os.path.join(rdir, "base"))
        assert got == 0, got
        assert out.getvalue().splitlines()[-1] == (
            "exact: 0 row(s) better and 0 row(s) worse than the baseline by more than 2%")
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="directory with baseline BENCH_*.json")
    ap.add_argument("current", nargs="?", help="directory with current BENCH_*.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        metavar="PCT",
        help="regression threshold in percent (default 15)",
    )
    ap.add_argument(
        "--prefix-threshold",
        action="append",
        default=[],
        metavar="PREFIX=PCT",
        help="per-series threshold override for keys whose bench/series name "
        "starts with PREFIX (repeatable; longest matching prefix wins)",
    )
    ap.add_argument(
        "--counter-threshold",
        action="append",
        default=[],
        metavar="PREFIX=PCT",
        help="gate counters whose bench/series/counter name starts with PREFIX "
        "when they grow more than PCT percent (repeatable; longest matching "
        "prefix wins; all-digit name components match as '*')",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI warm-up mode)",
    )
    ap.add_argument(
        "--exact",
        action="store_true",
        help="fail on any changed, new or removed row of a bench that has a "
        "baseline file (deterministic benches against bench/baseline/)",
    )
    ap.add_argument("--self-test", action="store_true", help="run the built-in checks")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.current:
        ap.error("baseline and current directories are required (or --self-test)")
    if args.exact:
        sys.exit(run_exact(args.baseline, args.current))
    try:
        prefix_thresholds = [parse_prefix_threshold(s) for s in args.prefix_threshold]
        counter_thresholds = [parse_prefix_threshold(s) for s in args.counter_threshold]
    except ValueError as e:
        ap.error(str(e))
    sys.exit(
        run(args.baseline, args.current, args.threshold, args.warn_only,
            prefix_thresholds, counter_thresholds)
    )


if __name__ == "__main__":
    main()
