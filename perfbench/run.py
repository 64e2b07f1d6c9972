#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout.  The script builds
perfbench/measure.exe with dune, then runs it once per iteration (one
process each, one OCaml domain) until S seconds of measurement are used,
checking every iteration's output.  With --trace 0 it reports the
end-to-end metrics (medians over untraced iterations); with --trace 1 it
alternates untraced and traced iterations, times the software-DSM layer
constructors standalone, and reports the per-layer metrics.  Every
iteration of one invocation must produce bit-identical simulated results
(traced or not); otherwise the run fails.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every check passed.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "measure.exe")
SPANS_DIR = os.path.join(HERE, "out")

WORKLOADS = [
    ("sor-as256",
     "SOR on flat lrc*256 (AS): software-DSM faults, diffs and barriers, "
     "the fabric, and mounting 256 DSM nodes"),
    ("water-ah64",
     "locked Water, 768 molecules, on AH at 64 procs: directory and cache "
     "traffic, hardware locks; no tmk/net code runs"),
    ("kv-hs32",
     "seeded open-loop Zipf KV store on HS (4 nodes x 8): fine-grain remote "
     "locks, migratory pages, snooping buses"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("mcycles_per_s", "Mcycle/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_mcycles", "Mcycle", "lower", 0.1),
    ("sim_messages", "count", "lower", 0.1),
    ("sim_kbytes", "KiB", "lower", 0.1),
    ("lat_p50_kcycles", "kcycle", "lower", 0.15),
    ("lat_p99_kcycles", "kcycle", "lower", 0.15),
]

OPS = ["read", "write", "range", "lock", "unlock", "barrier", "compute"]
CATEGORIES = ["compute", "protocol", "net_wait", "lock_wait", "barrier_wait",
              "diff", "twin", "mem_stall"]
TMK = ["faults", "diffs_created", "diffs_applied", "twins", "intervals",
       "invalidations", "lock_local", "lock_remote"]
NET = ["msgs.total", "msgs.miss", "msgs.sync", "bytes.total",
       "bytes.consistency", "retrans.total"]

# (name, unit, better)
PER_LAYER = (
    [("apps.build_s", "s", "lower"),
     ("platform.get_s", "s", "lower"),
     ("platform.mount_s", "s", "lower"),
     ("platform.teardown_s", "s", "lower")]
    + [(f"parmacs.{op}.{f}", u, "lower")
       for op in OPS for f, u in (("calls", "count"), ("host_s", "s"))]
    + [("apps.kernel_host_s", "s", "lower")]
    + [(f"sim.time.{c}", "share", "higher" if c == "compute" else "lower")
       for c in CATEGORIES]
    + [(f"tmk.{c}", "count", "lower") for c in TMK]
    + [("tmk.lock_remote_ratio", "ratio", "lower"),
       ("tmk.diffs_applied_per_fault", "ratio", "lower"),
       ("tmk.create_s", "s", "lower"),
       ("tmk.create_mwords", "Mword", "lower")]
    + [(f"net.{c}", "B" if ".bytes" in f".{c}" else "count", "lower")
       for c in NET]
    + [("net.create_s", "s", "lower"),
       ("net.create_mwords", "Mword", "lower")]
    + [(f"dir.{c}", "count", "lower")
       for c in ("msgs", "forwards", "invalidations")]
    + [(f"bus.{c}", "count", "lower") for c in ("rd", "rdx", "upgr", "inval")]
    + [("bus.utilization", "share", "lower"),
       ("kv.ops", "count", "higher"),
       ("kv.model_ok", "bool", "higher"),
       ("kv.moves", "count", "lower"),
       ("kv.hit_ratio", "ratio", "higher"),
       ("gc.minor_mwords", "Mword", "lower"),
       ("gc.major_mwords", "Mword", "lower"),
       ("gc.top_heap_mb", "MB", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)

RUN_SECONDS = 40
# Every invocation ends within this many seconds after the build.
DEADLINE_S = 170
BUILD_TIMEOUT_S = 850
# Iterations that always run, even past --seconds.
MIN_UNTRACED = 3
MIN_PAIRS = 2


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a source checkout: {need} missing in {ROOT}")
    try:
        res = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/measure.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if res.returncode != 0 or not os.path.exists(EXE):
        raise BenchError(f"build failed (exit {res.returncode})")


def measure(args, deadline):
    """Run measure.exe once; return its JSON object, or None on failure."""
    try:
        res = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                             text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"measure {' '.join(args)}: timed out")
        return None
    if res.stderr:
        log(res.stderr.rstrip())
    lines = res.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"measure {' '.join(args)}: exit {res.returncode}, no result")
        return None
    if res.returncode != 0 or not out.get("ok"):
        log(f"measure {' '.join(args)}: failed: {out.get('error', '')} "
            f"checksum={out.get('checksum')} ref={out.get('ref_checksum')} "
            f"kv_ok={out.get('kv_ok')}")
        return None
    return out


def sim_signature(it):
    """Everything the simulated machine computed; must repeat exactly."""
    counters = {k: v for k, v in it["counters"].items()
                if not k.startswith("time.")}
    return (it["cycles"], it["checksum"], it["lat_p50_cycles"],
            it["lat_p99_cycles"], sorted(counters.items()))


def med(iters, f):
    return statistics.median(f(it) for it in iters)


def end_to_end(untraced):
    it0 = untraced[0]
    c = it0["counters"]
    g = lambda k: c.get(k, 0)
    return {
        "wall_s": med(untraced, lambda it: it["wall_s"]),
        "setup_s": med(untraced, lambda it: it["setup_s"]),
        "mcycles_per_s": med(untraced,
                             lambda it: it["cycles"] / 1e6 / it["wall_s"]),
        "peak_rss_mb": med(untraced, lambda it: it["rss_kb"] / 1024),
        "sim_mcycles": it0["cycles"] / 1e6,
        "sim_messages": (g("net.msgs.total") + g("dir.msgs") + g("bus.rd")
                         + g("bus.rdx") + g("bus.upgr") + g("bus.wb")),
        "sim_kbytes": (g("net.bytes.total") + g("dir.bytes")
                       + g("bus.bytes")) / 1024,
        "lat_p50_kcycles": it0["lat_p50_cycles"] / 1e3,
        "lat_p99_kcycles": it0["lat_p99_cycles"] / 1e3,
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced, layers):
    t0 = traced[0]
    c = t0["counters"]
    g = lambda k: c.get(k, 0)
    span = lambda name: med(traced, lambda it: next(
        s["end_s"] - s["start_s"] for s in it["spans"] if s["name"] == name))
    m = {
        "apps.build_s": span("build-app"),
        "platform.get_s": span("build-machine"),
        "platform.mount_s": span("mount"),
        "platform.teardown_s": span("teardown"),
    }
    for op in OPS:
        m[f"parmacs.{op}.calls"] = t0["ops"][op]["calls"]
        m[f"parmacs.{op}.host_s"] = med(traced,
                                        lambda it: it["ops"][op]["host_s"])
    m["apps.kernel_host_s"] = med(traced, lambda it: it["kernel_host_s"])
    total = sum(g(f"time.{cat}") for cat in CATEGORIES)
    for cat in CATEGORIES:
        m[f"sim.time.{cat}"] = ratio(g(f"time.{cat}"), total)
    for k in TMK:
        m[f"tmk.{k}"] = g(f"tmk.{k}")
    m["tmk.lock_remote_ratio"] = ratio(
        g("tmk.lock_remote"), g("tmk.lock_local") + g("tmk.lock_remote"))
    m["tmk.diffs_applied_per_fault"] = ratio(g("tmk.diffs_applied"),
                                             g("tmk.faults"))
    for k in NET:
        m[f"net.{k}"] = g(f"net.{k}")
    for k in ("msgs", "forwards", "invalidations"):
        m[f"dir.{k}"] = g(f"dir.{k}")
    for k in ("rd", "rdx", "upgr", "inval"):
        m[f"bus.{k}"] = g(f"bus.{k}")
    m["bus.utilization"] = ratio(g("bus.busy"), t0["cycles"] * t0["buses"])
    m["kv.ops"] = g("kv.ops")
    m["kv.model_ok"] = g("kv.model_ok")
    m["kv.moves"] = g("kv.moves")
    m["kv.hit_ratio"] = ratio(g("kv.hits"), g("kv.gets"))
    m["gc.minor_mwords"] = med(untraced, lambda it: it["gc"]["minor_words"] / 1e6)
    m["gc.major_mwords"] = med(untraced, lambda it: it["gc"]["major_words"] / 1e6)
    m["gc.top_heap_mb"] = med(
        untraced, lambda it: it["gc"]["top_heap_words"] * 8 / 2**20)
    m["trace.overhead_ratio"] = (med(traced, lambda it: it["wall_s"])
                                 / med(untraced, lambda it: it["wall_s"]))
    for k in ("tmk.create_s", "tmk.create_mwords", "net.create_s",
              "net.create_mwords"):
        m[k] = layers[k]
    return m


def write_spans(workload, seed, traced):
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump([{"iteration": i, "spans": it["spans"], "ops": it["ops"],
                    "kernel_host_s": it["kernel_host_s"]}
                   for i, it in enumerate(traced)], f, indent=1)
    log(f"spans written to {os.path.relpath(path, ROOT)}")


def bench(a):
    build()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    layers = None
    if a.trace:
        layers = measure(["layers"] + base, deadline)
        if layers is None:
            raise BenchError("layer probes failed")
    untraced, traced, attempted = [], [], 0
    start = time.monotonic()
    stop_at = min(start + a.seconds, deadline)
    durations = []
    while True:
        want_traced = a.trace and len(traced) < len(untraced)
        # Traced and untraced iterations alternate, untraced first.
        enough = (len(traced) >= MIN_PAIRS if a.trace
                  else len(untraced) >= MIN_UNTRACED)
        if enough and time.monotonic() + statistics.mean(durations) > stop_at:
            break
        t = time.monotonic()
        it = measure(["run"] + base + ["--traced", "1" if want_traced else "0"],
                     deadline)
        durations.append(time.monotonic() - t)
        attempted += 1
        if it is None:
            return False, attempted, 1, {}
        (traced if want_traced else untraced).append(it)
        # Requests count toward the attempted total on the serving workload.
        attempted += it["counters"].get("kv.ops", 0)
    iters = untraced + traced
    if len({repr(sim_signature(it)) for it in iters}) != 1:
        log("simulated results differ between iterations "
            "(traced vs untraced, or run to run)")
        return False, attempted, 1, {}
    if a.trace:
        write_spans(a.workload, a.seed, traced)
        values = per_layer(untraced, traced, layers)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = end_to_end(untraced)
        units = {n: u for n, u, _, _ in END_TO_END}
    log(f"{a.workload} seed={a.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced iterations in "
        f"{time.monotonic() - start:.1f} s; latency samples "
        f"{iters[0]['lat_samples']}")
    for n in units:
        print(f"{n:32s} {values[n]:>16.6g} {units[n]}")
    return True, attempted, 0, {
        n: {"value": values[n], "unit": units[n]} for n in units}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json at the checkout root and exit")
    a = p.parse_args()
    if a.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if a.workload is None:
        p.error("--workload is required")
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        correct, attempted, failed, metrics = bench(a)
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 1
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
