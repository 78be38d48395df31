#!/usr/bin/env python3
"""Compare the host cost of two perfbench_driver builds in alternating pairs.

A host-only change (one that makes the simulator faster without moving any
simulated number) is claimed with this tool. It runs both drivers on one
workload and seed, N pairs, alternating which side runs first, and:

  - checks that each driver's simulated (non-host.*) fields are the same in
    every one of its runs, and stops if they are not;
  - prints which simulated fields differ between the two drivers, if any:
    a change that moves simulated numbers still gets its host comparison,
    but the run exits 1, so a host-only claim cannot rest on it;
  - prints each side's median and quartiles of setup_s (the median of a
    run's set-up repetitions, as perfbench/run.py reports it), host ns per
    simulated event (host.window_s / sim.events) and peak RSS;
  - prints how many pairs the second driver won on each metric, and whether
    the median difference exceeds the first driver's interquartile range
    (the rule a claimed gain must pass);
  - prints the median and quartiles of the per-pair ratio new/base. The
    host's speed drifts within a session, which widens each side's spread
    but cancels within a pair, so the ratio shows the change more steadily.
    It is reported, not ruled on: the claim rule stays the one above.

Usage:
  host_pairs.py BASE_DRIVER NEW_DRIVER --workload W [--seed N] [--pairs N]
  host_pairs.py --self-test

Each run has the size perfbench/run.py gives the workload at the
benchmark's --seconds 20. Exit status: 0 when the simulated fields agree, 1
when they differ between the drivers (after the host comparison), when one
driver's runs disagree or when a driver fails, 2 on bad usage.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no cache behind in perfbench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # perfbench/run.py: workload sizes, quantiles, simulated fields

SECONDS = 20  # the benchmark's run length


# ---- Arithmetic (covered by --self-test) ----

def summary(vals):
    """Lower quartile, median and upper quartile, by run.py's quantile rule."""
    s = sorted(vals)
    return run.percentile(s, 0.25), run.percentile(s, 0.5), run.percentile(s, 0.75)


def host_view(raw):
    """The host metrics of one driver run."""
    return {"setup_s": statistics.median(raw["host.setup_s"]),
            "ns_per_event": raw["host.window_s"] * 1e9 / raw["sim.events"],
            "peak_rss_mb": raw["host.peak_rss_kb"] / 1024.0}


def differing(a, b):
    """The names of the fields whose values differ between two sim views."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def pair_ratios(base, new):
    """Quartiles of the per-pair ratio new/base, paired by index."""
    return summary([n / b for b, n in zip(base, new)])


def compare(base, new):
    """Pair wins and the IQR rule for lower-is-better samples, paired by
    index: (wins of `new`, median change in percent, whether the median
    difference exceeds `base`'s interquartile range)."""
    wins = sum(1 for b, n in zip(base, new) if n < b)
    q1, med_b, q3 = summary(base)
    med_n = statistics.median(new)
    pct = 100.0 * (med_n / med_b - 1.0) if med_b else 0.0
    return wins, pct, (med_b - med_n) > (q3 - q1)


# ---- Running ----

def launched(cmd):
    """`cmd` started by a shell that forks it. Linux carries the high-water
    RSS of a forked process into the ru_maxrss of the program it execs, so a
    driver exec'd from a fork of this Python process would report this
    process's peak; forked from the small shell, it reports its own."""
    return ["/bin/sh", "-c", '"$0" "$@"; exit $?'] + cmd


def run_driver(driver, workload, seed, ops):
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--ops", str(ops)]
    p = subprocess.run(launched(cmd), capture_output=True, text=True)
    if p.returncode != 0:
        print("host_pairs: %s failed (%d): %s" % (driver, p.returncode, p.stderr.strip()[-500:]),
              file=sys.stderr)
        sys.exit(1)
    return json.loads(p.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--workload", choices=sorted(run.OPS_PER_SECOND))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not (args.base and args.new and args.workload) or args.pairs < 1:
        ap.error("BASE_DRIVER, NEW_DRIVER, --workload and --pairs >= 1 are required")
    ops = run.OPS_PER_SECOND[args.workload] * SECONDS
    drivers = {"base": args.base, "new": args.new}
    hosts = {"base": [], "new": []}
    reference = {}
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            raw = run_driver(drivers[side], args.workload, args.seed, ops)
            sim = run.sim_view(raw)
            diff = differing(reference.setdefault(side, sim), sim)
            if diff:
                print("host_pairs: pair %d: %s's simulated fields differ from its first run: %s"
                      % (i + 1, side, ", ".join(diff[:10])), file=sys.stderr)
                return 1
            hosts[side].append(host_view(raw))
        print("pair %2d  setup_s %.5f -> %.5f  ns/event %.1f -> %.1f"
              % (i + 1, hosts["base"][-1]["setup_s"], hosts["new"][-1]["setup_s"],
                 hosts["base"][-1]["ns_per_event"], hosts["new"][-1]["ns_per_event"]))
    diff = differing(reference["base"], reference["new"])
    if diff:
        print("%s seed %d, %d pairs of %d ops: %d simulated field(s) differ between the "
              "drivers: %s" % (args.workload, args.seed, args.pairs, ops, len(diff),
                               ", ".join(diff)))
    else:
        print("%s seed %d, %d pairs of %d ops: every simulated field identical"
              % (args.workload, args.seed, args.pairs, ops))
    for metric in ("setup_s", "ns_per_event", "peak_rss_mb"):
        base = [h[metric] for h in hosts["base"]]
        new = [h[metric] for h in hosts["new"]]
        wins, pct, beyond_iqr = compare(base, new)
        bq = summary(base)
        nq = summary(new)
        rq = pair_ratios(base, new)
        print("%-12s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]  median %+.1f%%  "
              "new wins %d/%d  beyond base IQR: %s  pair ratio %.3f [%.3f, %.3f]"
              % (metric, bq[1], bq[0], bq[2], nq[1], nq[0], nq[2], pct, wins, len(base),
                 "yes" if beyond_iqr else "no", rq[1], rq[0], rq[2]))
    return 1 if diff else 0


# ---- Self-test ----

def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    check(summary([5, 1, 4, 2, 3]) == (2, 3, 4), "quartiles of 1..5, unsorted")
    # Ten pairs, the new side lower in nine; base IQR [0.05575, 0.06725]
    # (0.0115 wide) against a 0.0205 median drop: a claim that holds.
    base = [0.050, 0.055, 0.060, 0.065, 0.070, 0.052, 0.058, 0.062, 0.068, 0.075]
    new = [0.040, 0.042, 0.038, 0.041, 0.039, 0.043, 0.040, 0.037, 0.044, 0.080]
    wins, pct, beyond = compare(base, new)
    check(wins == 9, "nine of ten pairs won (%d)" % wins)
    check(abs(pct - 100.0 * (0.0405 / 0.061 - 1.0)) < 1e-9, "median change (%.4f%%)" % pct)
    check(beyond, "median drop beyond the base IQR")
    # Same medians shifted by less than the base spread: no claim.
    wins, pct, beyond = compare(base, [b - 0.005 for b in base])
    check(wins == 10 and not beyond, "a drop inside the base IQR is not beyond it")
    # Per-pair ratios 0.5, 1.0, 0.8, 0.9 and 0.6, out of order: quartiles
    # 0.6, 0.8 and 0.9. A drift that scales both sides of a pair alike
    # leaves its ratio alone.
    q1, med, q3 = pair_ratios([2.0, 1.0, 5.0, 10.0, 5.0], [1.0, 1.0, 4.0, 9.0, 3.0])
    check(abs(q1 - 0.6) < 1e-12 and abs(med - 0.8) < 1e-12 and abs(q3 - 0.9) < 1e-12,
          "per-pair ratio quartiles (%.3f, %.3f, %.3f)" % (q1, med, q3))
    check(pair_ratios([1.0, 3.0], [0.5, 1.5]) == (0.5, 0.5, 0.5),
          "a drift shared within each pair cancels")
    raw = {"host.setup_s": [0.3, 0.1, 0.2], "host.window_s": 2.0, "sim.events": 4000000,
           "host.peak_rss_kb": 2048, "sim.ops": 5}
    check(host_view(raw) == {"setup_s": 0.2, "ns_per_event": 500.0, "peak_rss_mb": 2.0},
          "host view of a driver run")
    # A child started as run_driver starts a driver reports its own peak RSS,
    # not this process's: with 64 MB held here, a small Python child reads
    # well under it (started directly, it reads over 64 MB on Linux).
    ballast = b"x" * (64 << 20)
    child = [sys.executable, "-c",
             "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
    child_kb = int(subprocess.run(launched(child), capture_output=True, text=True,
                                  check=True).stdout)
    check(child_kb < len(ballast) / 1024 / 2,
          "a launched child's peak RSS is its own (%d kB, %d kB held by the parent)"
          % (child_kb, len(ballast) // 1024))
    del ballast
    check(differing({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 4}) == ["b", "c"],
          "differing names a changed field and a new one")
    # Two stand-in drivers that agree on every simulated field but sim.x:
    # the run exits 1, names sim.x and still prints the host comparison.
    with tempfile.TemporaryDirectory() as tmp:
        fakes = []
        for name, x in (("base", 1), ("new", 2)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write("#!%s\nimport json\nprint(json.dumps({'sim.x': %d, 'sim.events': 1000, "
                        "'host.setup_s': [0.01], 'host.window_s': 0.001, "
                        "'host.peak_rss_kb': 4096}))\n" % (sys.executable, x))
            os.chmod(path, 0o755)
            fakes.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(fakes + ["--workload", "sync_call", "--pairs", "2"])
        text = out.getvalue()
    check(status == 1, "drivers whose simulated fields differ exit 1 (%d)" % status)
    check("1 simulated field(s) differ between the drivers: sim.x" in text,
          "the differing field is named")
    check("setup_s" in text and "peak_rss_mb" in text,
          "the host comparison is printed anyway")
    for f in failures:
        print("FAIL: " + f)
    print("host_pairs self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
