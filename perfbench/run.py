#!/usr/bin/env python3
"""Repo benchmark for the dIPC simulator.

Builds perfbench/driver from the repo's sources, runs one seeded workload,
checks its outputs and prints every metric by name with its unit. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload sync_call|chan_stream|fabric_rpc \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload three
times, untraced, traced (spans kept in host memory, written at exit) and
untraced again, checks that every simulated result is bit-identical across
the three, and prints the per-layer metrics. See perfbench/README.md for
every metric's definition.
"""

import argparse
import bisect
import json
import math
import os
import statistics
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# Measured operations per second of --seconds, per workload (fabric_rpc: half
# the nominal rate step's requests; see the driver for the other steps). Sized
# so a run takes about --seconds on a 4-core x86 host. The amount of simulated
# work depends only on --seconds, never on host speed, so simulated results
# repeat.
OPS_PER_SECOND = {"sync_call": 15000, "chan_stream": 75000, "fabric_rpc": 500}
# A traced run makes three driver runs (untraced, traced, untraced), each
# this much smaller than an untraced run.
TRACE_DIVISOR = 4

# The five section 7.2 ratios bench_fig5_sync_calls prints: (numerator,
# denominator, paper value).
PAPER_RATIOS = [
    ("rpc_same", "dipc_proc_high", 64.12),
    ("l4_same", "dipc_proc_high", 8.87),
    ("dipc_high", "dipc_low", 8.47),
    ("sem_same", "dipc_proc_high", 14.16),
    ("rpc_same", "dipc_proc_low", 120.67),
]
ANCHORS = ["func", "dipc_low", "dipc_high", "dipc_proc_low", "dipc_proc_high",
           "sem_same", "l4_same", "rpc_same"]

END_TO_END = [("ops_per_s", "ops/s"), ("op_p50_ns", "ns"), ("op_p99_ns", "ns"),
              ("paper_err_pct", "%"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

SPAN_LAYERS = ["app", "hw", "codoms", "dipc", "chan", "fabric", "os"]
TIME_CATS = ["user", "syscall", "dispatch", "kernel", "sched", "ptswitch", "idle", "proxy"]
PER_LAYER = (
    [("failed_frac", "ratio"), ("op_samples", "count"),
     ("sim.events_per_op", "count"), ("sim.host_ns_per_event", "ns"),
     ("hw.touch_ns_per_op", "ns"), ("hw.l1_hit_ratio", "ratio"),
     ("hw.mem_accesses_per_op", "count"), ("hw.remote_transfers_per_op", "count"),
     ("codoms.cap_ns_per_op", "ns"), ("codoms.mints_per_op", "count"),
     ("codoms.apl_hit_ratio", "ratio"),
     ("dipc.call_p50_ns", "ns"), ("dipc.call_p99_ns", "ns"),
     ("dipc.proxy_invocations_per_op", "count"),
     ("os.ctx_switches_per_op", "count"), ("os.migrations_per_op", "count"),
     ("os.futex_parks_per_op", "count"), ("os.futex_wakes_per_op", "count")]
    + [("os.time.%s_ns_per_op" % c, "ns") for c in TIME_CATS]
    + [("os.time.closure", "ratio"),
       ("chan.acquire_ns", "ns"), ("chan.send_ns", "ns"), ("chan.recv_ns", "ns"),
       ("chan.release_ns", "ns"), ("chan.recv_batch_mean", "count"),
       ("chan.blocked_pops_per_msg", "count"), ("chan.blocked_pushes_per_msg", "count"),
       ("chan.duplex_rtt_ns", "ns"),
       ("fabric.call_p50_ns", "ns"), ("fabric.call_p99_ns", "ns"),
       ("fabric.handler_ns", "ns"), ("fabric.overhead_ns", "ns"),
       ("fabric.credit_stalls_per_op", "count"), ("fabric.retries_per_op", "count"),
       ("loadgen.rate_at_slo_ops_s", "ops/s"), ("loadgen.slo_step_ops_s", "ops/s"),
       ("loadgen.lag_p99_ns", "ns"),
       ("loadgen.queue_wait_ns", "ns"), ("loadgen.backlog_max", "count")]
    + [("anchor.%s_ns" % a, "ns") for a in ANCHORS]
    + [("self.%s%s_ns_per_op" % (l, k), "ns") for l in SPAN_LAYERS for k in ("", "_busy")]
    + [("trace.host_overhead_pct", "%"), ("trace.sim_identical", "bool")]
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---- Arithmetic (covered by --self-test) ----

def percentile(sorted_vals, q):
    """Linearly interpolated quantile q in [0, 1] of an ascending list."""
    if not sorted_vals:
        return 0.0
    h = (len(sorted_vals) - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def beyond(sorted_vals, value):
    """How many samples lie strictly above `value`."""
    return len(sorted_vals) - bisect.bisect_right(sorted_vals, value)


def tail_is_supported(sorted_vals, q, need=10):
    """The ten-samples rule: at least `need` samples lie beyond quantile q."""
    return beyond(sorted_vals, percentile(sorted_vals, q)) >= need


def paper_err_from_ratios(measured):
    """Largest |measured/paper - 1| over the five fig5 ratios, in percent."""
    return 100.0 * max(abs(m / paper - 1.0) for m, (_n, _d, paper) in zip(measured, PAPER_RATIOS))


def paper_err_pct(anchor_ns):
    return paper_err_from_ratios([anchor_ns[n] / anchor_ns[d] for n, d, _paper in PAPER_RATIOS])


def per_op(total, ops):
    """Normalises a window total by the window's op count (0 for no ops)."""
    return total / ops if ops else 0.0


def backlog_series(due, end):
    """Outstanding requests seen at each arrival: arrived so far minus completed."""
    ends = sorted(end)
    out, j = [], 0
    for i, t in enumerate(sorted(due)):
        while j < len(ends) and ends[j] <= t:
            j += 1
        out.append(i + 1 - j)
    return out


def backlog_grows(series, floor=16):
    """True when the last quarter's mean backlog exceeds the first quarter's by
    more than the larger of that mean and `floor` (a queue that keeps growing,
    not one that fluctuates around a level)."""
    if len(series) < 8:
        return False
    q = len(series) // 4
    first = statistics.fmean(series[:q])
    last = statistics.fmean(series[-q:])
    return last - first > max(first, floor)


def slo_step(steps, limit):
    """Index of the highest step whose p99 meets `limit` with no growing
    backlog, or None. `steps` is a list of (rate, p99, grows), climbing."""
    best = None
    for i, (_rate, p99, grows) in enumerate(steps):
        if p99 <= limit and not grows:
            best = i
    return best


def rate_at_slo(steps, limit):
    """The offered rate at which p99 reaches `limit`: the highest qualifying
    step's rate, moved linearly toward the next step by where the limit falls
    between their p99s (that step's own rate when no higher step exceeds the
    limit). 0.0 when no step qualifies."""
    best = slo_step(steps, limit)
    if best is None:
        return 0.0
    rate, p99, _grows = steps[best]
    if best + 1 < len(steps):
        next_rate, next_p99, _ = steps[best + 1]
        if math.isfinite(next_p99) and next_p99 > limit:
            return rate + (next_rate - rate) * (limit - p99) / (next_p99 - p99)
    return float(rate)


# ---- Build and run ----

def build():
    for need in ("src/sim/event_queue.h", "bench/micro_harness.cc", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("missing %s: run from a full checkout of the repository" % need)
            sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"], stdout=out, stderr=out, check=True)


def run_driver(workload, seed, ops, spans=None):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--ops", str(ops)]
    if spans:
        cmd += ["--spans", spans]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        log("driver failed (%d): %s" % (p.returncode, p.stderr.strip()[-2000:]))
        sys.exit(1)
    return json.loads(p.stdout)


def read_spans(path):
    with open(path, "rb") as f:
        names = f.readline().decode().split()
        data = f.read()
    return names, list(struct.iter_unpack("<HHiqqqq", data))


# ---- Metrics ----

def sum_counters(counters, suffixes, prefixes=("",)):
    return sum(v for k, v in counters.items()
               if k.endswith(suffixes) and k.startswith(prefixes))


def fabric_steps(raw):
    """Per-step latency (failed requests count as missing the limit), p99,
    backlog growth and goodput (completed requests per simulated second, from
    the first due time to the last completion) for fabric_rpc, with the
    qualifying step and the rate at the latency limit."""
    steps = []
    limit = raw["sim.latency_limit_ps"]
    for s, rate in enumerate(raw["req.rate_steps"]):
        idx = [i for i, x in enumerate(raw["req.step"]) if x == s]
        due = [raw["req.due_ps"][i] for i in idx]
        end = [raw["req.end_ps"][i] for i in idx]
        lat = sorted(raw["req.end_ps"][i] - raw["req.due_ps"][i]
                     if raw["req.ok"][i] else math.inf for i in idx)
        backlog = backlog_series(due, end)
        good = sum(raw["req.ok"][i] for i in idx)
        steps.append({"rate": rate, "idx": idx, "lat": lat, "p99": percentile(lat, 0.99),
                      "grows": backlog_grows(backlog), "backlog_max": max(backlog),
                      "goodput": good / ((max(end) - min(due)) / 1e12)})
    points = [(st["rate"], st["p99"], st["grows"]) for st in steps]
    return steps, slo_step(points, limit), rate_at_slo(points, limit)


def end_to_end(workload, raw):
    m = {}
    if workload == "fabric_rpc":
        steps, _best, _rate = fabric_steps(raw)
        lat = steps[raw["sim.nominal_step"]]["lat"]
        m["ops_per_s"] = steps[raw["sim.saturation_step"]]["goodput"]
    else:
        lat = sorted(raw["sim.lat_ps"])
        m["ops_per_s"] = raw["sim.ops"] / (raw["sim.window_ps"] / 1e12)
    m["op_p50_ns"] = percentile(lat, 0.50) / 1e3
    m["op_p99_ns"] = percentile(lat, 0.99) / 1e3
    m["paper_err_pct"] = paper_err_pct({a: raw["anchor.%s_ns" % a] for a in ANCHORS})
    m["setup_s"] = statistics.median(raw["host.setup_s"])
    m["peak_rss_mb"] = raw["host.peak_rss_kb"] / 1024.0
    valid = tail_is_supported(lat, 0.99)
    log("%s: %d latency samples, %d beyond p99" % (workload, len(lat), beyond(lat, percentile(lat, 0.99))))
    return m, valid


def window_ops(workload, raw):
    if workload == "fabric_rpc":
        return sum(1 for x in raw["req.step"] if x == raw["sim.nominal_step"])
    return raw["sim.attempted"]


def span_metrics(raw, names, spans, ops):
    """Per-call latencies and per-layer self time from the span log, over the
    measured window only."""
    t0 = raw["sim.window_start_ps"]
    t1 = t0 + raw["sim.window_ps"]
    # Self time is a span's duration minus its children's. A child's busy
    # time counts against its parent's only when both ran in the same
    # process (a callee's work inside a dIPC call is not the caller's CPU).
    # Busy time is unknown (-1) where the driver could not attribute it.
    child_dur = [0] * len(spans)
    child_busy = [0] * len(spans)
    for name, pid, parent, _op, start, end, busy in spans:
        if parent >= 0:
            child_dur[parent] += end - start
            if spans[parent][1] == pid and busy >= 0:
                child_busy[parent] += busy
    durations = {n: [] for n in names}
    self_ps = {l: 0 for l in SPAN_LAYERS}
    self_busy = {l: 0 for l in SPAN_LAYERS}
    for i, (name, _pid, _parent, _op, start, end, busy) in enumerate(spans):
        if start < t0 or end > t1:
            continue
        n = names[name]
        durations[n].append(end - start)
        layer = n.split(".")[0]
        self_ps[layer] += (end - start) - child_dur[i]
        if busy >= 0:
            self_busy[layer] += busy - child_busy[i]
    for v in durations.values():
        v.sort()
    m = {}

    def p(name, q):
        return percentile(durations.get(name, []), q) / 1e3

    m["hw.touch_ns_per_op"] = per_op(sum(durations["hw.touch"]), ops) / 1e3
    m["codoms.cap_ns_per_op"] = per_op(sum(durations["codoms.cap"]), ops) / 1e3
    m["dipc.call_p50_ns"] = p("dipc.call", 0.5)
    m["dipc.call_p99_ns"] = p("dipc.call", 0.99)
    for call in ("acquire", "send", "recv", "release", "duplex_rtt"):
        m["chan.%s_ns" % call] = p("chan." + call, 0.5)
    m["fabric.call_p50_ns"] = p("fabric.call", 0.5)
    m["fabric.call_p99_ns"] = p("fabric.call", 0.99)
    m["fabric.handler_ns"] = p("fabric.handler", 0.5)
    calls, handlers = durations["fabric.call"], durations["fabric.handler"]
    m["fabric.overhead_ns"] = ((statistics.fmean(calls) - statistics.fmean(handlers)) / 1e3
                               if calls and handlers else 0.0)
    for l in SPAN_LAYERS:
        m["self.%s_ns_per_op" % l] = per_op(self_ps[l], ops) / 1e3
        m["self.%s_busy_ns_per_op" % l] = per_op(self_busy[l], ops) / 1e3
    return m


def per_layer(workload, raw, untraced, names, spans):
    ops = window_ops(workload, raw)
    c = raw["sim.registry"].get("counters", {})
    h = raw["sim.registry"].get("histograms", {})
    m = {"failed_frac": per_op(raw["sim.failed"], raw["sim.attempted"]), "op_samples": 0}
    m["sim.events_per_op"] = per_op(raw["sim.events"], ops)
    m["sim.host_ns_per_event"] = per_op(untraced["host.window_s"] * 1e9, untraced["sim.events"])
    cache = [raw["sim.cache." + k] for k in
             ("l1_hits", "l2_hits", "l3_hits", "mem_accesses", "remote_transfers")]
    m["hw.l1_hit_ratio"] = per_op(cache[0], sum(cache))
    m["hw.mem_accesses_per_op"] = per_op(raw["sim.cache.mem_accesses"], ops)
    m["hw.remote_transfers_per_op"] = per_op(raw["sim.cache.remote_transfers"], ops)
    m["codoms.mints_per_op"] = per_op(raw["sim.mints"], ops)
    m["codoms.apl_hit_ratio"] = per_op(raw["sim.apl_hits"], raw["sim.apl_hits"] + raw["sim.apl_misses"])
    m["dipc.proxy_invocations_per_op"] = per_op(raw["sim.proxy_invocations"], ops)
    m["os.ctx_switches_per_op"] = per_op(raw["sim.ctx_switches"], ops)
    m["os.migrations_per_op"] = per_op(c.get("os/sched/migrations", 0), ops)
    parks = sum_counters(c, ("blocked_pushes", "blocked_pops", "blocked_writes", "blocked_reads",
                             "os/sem/futex_waits"))
    wakes = sum_counters(c, ("futex_wakes",))
    m["os.futex_parks_per_op"] = per_op(parks, ops)
    m["os.futex_wakes_per_op"] = per_op(wakes, ops)
    total_ps = 0
    for cat in TIME_CATS:
        ps = raw["sim.time.%s_ps" % cat]
        total_ps += ps
        m["os.time.%s_ns_per_op" % cat] = per_op(ps, ops) / 1e3
    m["os.time.closure"] = total_ps / (raw["sim.cpus"] * raw["sim.window_ps"])
    batches = [v for k, v in h.items() if k.endswith("/recv_batch")]
    m["chan.recv_batch_mean"] = per_op(sum(b["sum_ns"] for b in batches), sum(b["count"] for b in batches))
    msgs = sum_counters(c, ("/sends",), ("chan/", "fanout/", "fanin/"))
    queue = ("chan/", "fanout/", "fanin/", "mpmc/")
    m["chan.blocked_pops_per_msg"] = per_op(sum_counters(c, ("blocked_pops",), queue), msgs)
    m["chan.blocked_pushes_per_msg"] = per_op(sum_counters(c, ("blocked_pushes",), queue), msgs)
    m["fabric.credit_stalls_per_op"] = per_op(raw.get("sim.credit_stalls", 0), ops)
    m["fabric.retries_per_op"] = per_op(raw.get("sim.retries", 0), ops)
    m["loadgen.rate_at_slo_ops_s"] = m["loadgen.slo_step_ops_s"] = 0.0
    m["loadgen.lag_p99_ns"] = m["loadgen.queue_wait_ns"] = m["loadgen.backlog_max"] = 0.0
    if workload == "fabric_rpc":
        steps, best, rate = fabric_steps(raw)
        nominal = steps[raw["sim.nominal_step"]]
        idx = nominal["idx"]
        m["op_samples"] = len(idx)
        m["loadgen.rate_at_slo_ops_s"] = rate
        m["loadgen.slo_step_ops_s"] = float(steps[best]["rate"]) if best is not None else 0.0
        lag = sorted(raw["req.start_ps"][i] - raw["req.due_ps"][i] for i in idx if not raw["req.queued"][i])
        m["loadgen.lag_p99_ns"] = percentile(lag, 0.99) / 1e3
        m["loadgen.queue_wait_ns"] = statistics.fmean(
            raw["req.start_ps"][i] - raw["req.due_ps"][i] for i in idx) / 1e3
        m["loadgen.backlog_max"] = float(nominal["backlog_max"])
    else:
        m["op_samples"] = len(raw["sim.lat_ps"])
    for a in ANCHORS:
        m["anchor.%s_ns" % a] = raw["anchor.%s_ns" % a]
    m.update(span_metrics(raw, names, spans, ops))
    return m


def warn_if_invalid(workload, layer, e2e):
    """The benchmark's own validity conditions, reported on stderr: the
    os.time split closes against CPUs x window, and the open-loop generator
    is not the bottleneck at the nominal rate."""
    if abs(layer["os.time.closure"] - 1.0) > 0.01:
        log("%s: os.time.* add up to %.4f of CPUs x window" % (workload, layer["os.time.closure"]))
    if workload == "fabric_rpc" and layer["loadgen.lag_p99_ns"] >= e2e["op_p50_ns"] / 10:
        log("fabric_rpc: generator lag p99 %.0f ns is not under a tenth of op_p50 %.0f ns"
            % (layer["loadgen.lag_p99_ns"], e2e["op_p50_ns"]))


def sim_view(raw):
    """Every simulated (non-host) result of a driver run."""
    return {k: v for k, v in raw.items() if not k.startswith("host.")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(OPS_PER_SECOND))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload or args.seconds < 1 or args.seed < 0:
        ap.error("--workload, a non-negative --seed and --seconds >= 1 are required")
    build()
    ops = OPS_PER_SECOND[args.workload] * args.seconds
    if args.trace == 0:
        raw = run_driver(args.workload, args.seed, ops)
        metrics, valid = end_to_end(args.workload, raw)
        units = dict(END_TO_END)
    else:
        # Untraced runs on both sides of the traced one, so host drift
        # during the three runs does not pass for tracing overhead.
        ops = max(1, ops // TRACE_DIVISOR)
        before = run_driver(args.workload, args.seed, ops)
        spans_path = os.path.join(BUILD, "spans-%s-%d.bin" % (args.workload, args.seed))
        raw = run_driver(args.workload, args.seed, ops, spans=spans_path)
        after = run_driver(args.workload, args.seed, ops)
        names, spans = read_spans(spans_path)
        os.remove(spans_path)
        metrics = per_layer(args.workload, raw, before, names, spans)
        warn_if_invalid(args.workload, metrics, end_to_end(args.workload, raw)[0])
        identical = sim_view(raw) == sim_view(before) == sim_view(after)
        metrics["trace.sim_identical"] = 1.0 if identical else 0.0
        untraced_s = (before["host.window_s"] + after["host.window_s"]) / 2
        metrics["trace.host_overhead_pct"] = 100.0 * (raw["host.window_s"] / untraced_s - 1.0)
        valid = identical
        if not identical:
            log("traced run's simulated results differ from the untraced run")
        units = dict(PER_LAYER)
    for failure in raw["check_failures"]:
        log("output check failed: " + failure)
    correct = valid and not raw["check_failures"] and raw["sim.failed"] == 0
    # A p99 over failed requests is infinite, which JSON cannot carry; such a
    # run is already incorrect, so the value prints as 0.
    values = {name: float(metrics[name]) for name in units}
    result = {"correct": correct, "attempted": raw["sim.attempted"], "failed": raw["sim.failed"],
              "metrics": {name: {"value": v if math.isfinite(v) else 0.0, "unit": units[name]}
                          for name, v in values.items()}}
    print(json.dumps(result))


# ---- Self-test ----

def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # Ten samples beyond a percentile: 1000 distinct samples support p99
    # (10 beyond it), 900 do not (9 beyond).
    vals = list(range(1, 1001))
    check(percentile(vals, 0.5) == 500.5, "median of 1..1000")
    check(beyond(vals, percentile(vals, 0.99)) == 10, "ten beyond p99 of 1000 samples")
    check(tail_is_supported(vals, 0.99), "p99 supported by 1000 samples")
    check(beyond(list(range(1, 901)), percentile(list(range(1, 901)), 0.99)) == 9, "9 beyond of 900")
    check(not tail_is_supported(list(range(1, 901)), 0.99), "p99 not supported by 900 samples")
    check(not tail_is_supported([5] * 5000, 0.99), "ties leave nothing beyond p99")

    # paper_err_pct from the ratios bench_fig5_sync_calls prints at the
    # calibration commit (63.85x, 8.81x, 7.70x, 14.11x, 117.88x): the largest
    # error is dIPC High/Low, 7.70x against the paper's 8.47x, 9.09%. The
    # same figure follows from that commit's anchor rows.
    err = paper_err_from_ratios([63.85, 8.81, 7.70, 14.11, 117.88])
    check(abs(err - 100 * (1 - 7.70 / 8.47)) < 1e-9, "paper_err from printed ratios (%.4f)" % err)
    rows = {"func": 2.0, "dipc_low": 7.345, "dipc_high": 56.542, "dipc_proc_low": 58.142,
            "dipc_proc_high": 107.339, "sem_same": 1514.1675, "l4_same": 945.175,
            "rpc_same": 6854.0195}
    check(abs(paper_err_pct(rows) - err) < 0.05, "paper_err from anchor rows")

    # Backlog: a steady queue does not grow; one fed faster than it drains does.
    due = [i * 10 for i in range(400)]
    steady = backlog_series(due, [t + 25 for t in due])
    check(max(steady) <= 3 and not backlog_grows(steady), "steady backlog")
    overload = backlog_series(due, [i * 15 + 5 for i in range(400)])
    check(backlog_grows(overload), "overloaded backlog grows")
    check(not backlog_grows([20, 60, 10, 50] * 50), "noisy but level backlog")

    # Rate steps: the highest step meeting the limit without growth wins, and
    # the rate moves toward the next step by where the limit falls between
    # their p99s.
    steps = [(60, 100, False), (80, 150, False), (100, 290, False), (110, 310, False),
             (120, 250, True), (130, 900, True)]
    check(slo_step(steps, 300) == 2, "highest qualifying step is 100")
    check(abs(rate_at_slo(steps, 300) - 105.0) < 1e-9, "rate at limit interpolates to 105")
    check(slo_step(steps, 50) is None and rate_at_slo(steps, 50) == 0.0, "no step meets a tight limit")
    check(rate_at_slo([(60, 100, False), (80, 200, False)], 300) == 80.0, "all steps pass")
    check(rate_at_slo([(60, 100, False), (80, math.inf, False)], 300) == 60.0,
          "a failed request (inf latency) misses the limit")
    check(rate_at_slo([(60, 100, False), (80, 200, True)], 300) == 60.0,
          "a growing backlog disqualifies a step that meets the limit")

    # Per-op normalisation.
    check(per_op(1500, 1000) == 1.5 and per_op(7, 0) == 0.0, "per-op normalisation")
    check(per_op(0, 10) == 0.0, "zero total")

    for f in failures:
        print("FAIL: " + f)
    print("self-test: %d checks failed" % len(failures) if failures else "self-test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    main()
