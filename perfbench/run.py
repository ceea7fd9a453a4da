#!/usr/bin/env python3
"""End-to-end benchmark of cache_explorer, with per-layer attribution.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload village_sweep --seed 0 \
        --seconds 15 --trace 0

The first run builds cache_explorer and the benchmark's own driver
(perfbench_trace) into .bench_build/perfbench. Every run then:

  * computes the reference outputs for its inputs with perfbench_trace
    (cached per input variant and driver binary);
  * --trace 0: runs the workload's cache_explorer command as a child
    process, one child at a time, with every observability output off:
    first cut to one frame (one round) a few times for setup_s, then in
    full for --seconds, checking every child's printed outputs against
    the reference. Prints texels_per_s, setup_s and peak_rss_mb.
  * --trace 1: runs the command once untraced, then
    perfbench_trace --mode trace over the same frames and
    configurations, and prints the per-layer table, the attribution and
    the tracing overhead.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics. See perfbench/NOTES.md for the workloads,
the metrics and what each should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150
SETUP_REPS = 3
MIN_REPS = 2

SWEEP_FLAGS = {
    "village_sweep": ["--sweep", "l2", "--workload", "village",
                      "--filter", "trilinear", "--jobs", "1"],
    "city_observed": ["--sweep", "l2tile", "--workload", "city",
                      "--filter", "trilinear", "--jobs", "1",
                      "--miss-classes", "--mrc"],
}
# Input variants the seed picks from; seed 0 picks the first, on which
# the metrics are recorded. The CLI has no procedural seed: sweeps vary
# the animation sampling (--frames F renders frames 0..F-1 of an F-frame
# camera path), streams the stream-workload order.
SWEEP_FRAMES = {
    "village_sweep": [5, 6],
    "city_observed": [3, 4],
}
STREAM_ORDERS = [
    "village,city,village,city",
    "city,village,city,village",
]
STREAM_ROUNDS = 40
STREAM_FLAGS = ["--streams", "4", "--l2-policy", "utility", "--jobs", "2"]

# Per-layer metric -> (end-to-end metric it should move, workloads).
LAYER_MAP = {
    "workload.build_s": ("setup_s", "all"),
    "raster.ns_per_texel": ("texels_per_s", "village_sweep"),
    "raster.emit_ns_per_texel": ("texels_per_s",
                                 "village_sweep, streams_shared"),
    "raster.refs_per_texel": ("peak_rss_mb", "streams_shared"),
    "trace.span_mb_per_frame": ("peak_rss_mb", "streams_shared"),
    "core.batch_ns_per_texel": ("texels_per_s", "village_sweep"),
    "core.l1_ns_per_texel": ("texels_per_s", "village_sweep"),
    "core.l2_ns_per_miss": ("texels_per_s", "village_sweep, streams_shared"),
    "core.scalar_ns_per_texel": ("texels_per_s", "city_observed"),
    "obs.classify_ns_per_texel": ("texels_per_s", "city_observed"),
    "obs.mrc_ns_per_texel": ("texels_per_s", "city_observed"),
    "obs.mrc_rss_mb": ("peak_rss_mb", "city_observed"),
    "sim.stream_overhead_s": ("texels_per_s", "streams_shared"),
    "sim.unattributed_share": ("texels_per_s", "all"),
    "bench.trace_overhead_share": ("none: tracing cost", "all"),
    "core.l1_hit_rate": ("none: must stay identical", "all"),
    "core.l2_full_hit_rate": ("none: must stay identical", "all"),
    "core.victim_steps_max": ("none: must stay identical", "all"),
    "host.mb_per_frame": ("none: must stay identical", "all"),
    "raster.texels_per_frame": ("none: must stay identical", "all"),
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero, print no result."""


# ------------------------------------------------------------- inputs

class Spec:
    """One workload's command for one input variant."""

    def __init__(self, workload, seed):
        if workload not in SWEEP_FLAGS and workload != "streams_shared":
            raise BenchError("unknown workload '%s'" % workload)
        self.workload = workload
        self.seed = seed
        if workload == "streams_shared":
            self.order = STREAM_ORDERS[seed % len(STREAM_ORDERS)]
            self.units = STREAM_ROUNDS
        else:
            frames = SWEEP_FRAMES[workload]
            self.units = frames[seed % len(frames)]

    @property
    def streams(self):
        return self.workload == "streams_shared"

    def flags(self, units=None):
        """cache_explorer flags; units = frames (sweep) or rounds."""
        units = self.units if units is None else units
        if self.streams:
            return STREAM_FLAGS + ["--stream-workloads", self.order,
                                   "--rounds", str(units)]
        return SWEEP_FLAGS[self.workload] + ["--frames", str(units)]


# -------------------------------------------------------------- build

def build():
    """Configure (once) and build the two binaries; return their paths."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join("examples",
                                            "cache_explorer.cpp"))):
        raise BenchError("run from the root of a checkout of the "
                         "repository: no sources to build here")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(BENCH_DIR),
                      "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "cache_explorer", "perfbench_trace",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: %s" % " ".join(cmd))
    cli = os.path.join(BUILD_DIR, "mltc", "examples", "cache_explorer")
    driver = os.path.join(BUILD_DIR, "perfbench_trace")
    return cli, driver


# ------------------------------------------------------------ children

class Child:
    """One finished child process: exit code, wall time, peak RSS."""

    def __init__(self, argv, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        self.stdout_path = os.path.join(out_dir, "stdout.txt")
        self.stderr_path = os.path.join(out_dir, "stderr.txt")
        with open(self.stdout_path, "w") as out, \
                open(self.stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        self.code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.code
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def stdout(self):
        with open(self.stdout_path) as f:
            return f.read()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def reference(driver, spec, units, scratch):
    """The reference outputs for spec at `units`, cached per driver."""
    flags = spec.flags(units)
    key = hashlib.sha256(" ".join(flags).encode()).hexdigest()[:16]
    ref_dir = os.path.join(BUILD_DIR, "ref",
                           "%s-%s-%s" % (spec.workload, key,
                                         file_digest(driver)))
    if not os.path.isfile(os.path.join(ref_dir, "summary.json")):
        tmp = os.path.join(scratch, "ref")
        shutil.rmtree(tmp, ignore_errors=True)
        child = Child([driver, "--mode", "reference", "--out", tmp] + flags,
                      tmp)
        if child.code != 0:
            with open(child.stderr_path) as f:
                sys.stderr.write(f.read())
            raise BenchError("reference run failed (exit %d)" % child.code)
        shutil.rmtree(ref_dir, ignore_errors=True)
        os.makedirs(os.path.dirname(ref_dir), exist_ok=True)
        os.rename(tmp, ref_dir)
    with open(os.path.join(ref_dir, "summary.json")) as f:
        summary = json.load(f)
    return ref_dir, summary


# ------------------------------------------------------- output check

def text_blocks(text):
    """Split printed sweep output into its checked blocks.

    Returns {name: [lines]} for the sweep table ("table"), the 3C totals
    ("3c") and the reuse-distance profile ("mrc"); absent blocks are
    missing from the dict.
    """
    lines = text.splitlines()
    blocks = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("configuration ") and "L1 hit" in line:
            name = "table"
        elif line.startswith("3C miss classification"):
            name = "3c"
        elif line.startswith("reuse-distance profile of"):
            name = "mrc"
        else:
            i += 1
            continue
        j = i + 1
        if name == "mrc":  # two curves split by a blank line
            while j < len(lines) and not lines[j].startswith(
                    ("[", "top ", "stage ")):
                j += 1
        else:
            while j < len(lines) and lines[j].strip():
                j += 1
        blocks[name] = [ln.rstrip() for ln in lines[i:j]]
        while blocks[name] and not blocks[name][-1]:
            blocks[name].pop()
        i = j
    return blocks


def check_sweep(stdout, code, ref_text, labels, frames):
    """Operations (frames x configurations) that fail the check."""
    if code != 0:
        return len(labels) * frames, ["exit code %d" % code]
    want = text_blocks(ref_text)
    got = text_blocks(stdout)
    bad = set()
    notes = []
    for name, want_lines in want.items():
        got_lines = got.get(name)
        if got_lines is None:
            bad.update(labels)
            notes.append("missing %s block" % name)
            continue
        if name == "mrc":
            if got_lines != want_lines:
                bad.add(labels[0])
                notes.append("mrc block differs")
            continue
        for k in range(max(len(want_lines), len(got_lines))):
            w = want_lines[k] if k < len(want_lines) else None
            g = got_lines[k] if k < len(got_lines) else None
            if w == g:
                continue
            hit = [lb for lb in labels if w and w.startswith(lb + " ")]
            bad.update(hit or labels)
            notes.append("%s row differs: %r != %r" % (name, g, w))
    return len(bad) * frames, notes


def check_streams(code, csv_prefix, ref_dir, streams, rounds):
    """Operations (rounds x streams) that fail the check."""
    if code != 0:
        return streams * rounds, ["exit code %d" % code]
    failed = 0
    notes = []
    for i in range(streams):
        with open(os.path.join(ref_dir, "ref.stream%d.csv" % i)) as f:
            want = f.read().splitlines()
        path = "%s.stream%d.csv" % (csv_prefix, i)
        got = []
        if os.path.isfile(path):
            with open(path) as f:
                got = f.read().splitlines()
        if not got or got[0] != want[0]:
            failed += len(want) - 1
            notes.append("stream %d: csv missing or header differs" % i)
            continue
        for k in range(1, len(want)):
            if k >= len(got) or got[k] != want[k]:
                failed += 1
                notes.append("stream %d row %d differs" % (i, k - 1))
        if len(got) > len(want):
            failed += len(got) - len(want)
            notes.append("stream %d: extra rows" % i)
    return failed, notes


def sweep_labels(ref_text):
    rows = text_blocks(ref_text).get("table", [])[2:]
    return [row.split("  ")[0] for row in rows]


class Checker:
    """Runs one command variant as a child and checks its outputs."""

    def __init__(self, cli, driver, spec, units, scratch):
        self.cli = cli
        self.spec = spec
        self.units = units
        self.scratch = scratch
        self.ref_dir, summary = reference(driver, spec, units, scratch)
        self.texels = summary["texels"]
        self.operations = summary["operations"]
        if spec.streams:
            self.streams = self.operations // units
        else:
            with open(os.path.join(self.ref_dir, "sweep.txt")) as f:
                self.ref_text = f.read()
            self.labels = sweep_labels(self.ref_text)

    def run(self):
        """Run the command once; return (child, failed operations)."""
        out = os.path.join(self.scratch, "child")
        shutil.rmtree(out, ignore_errors=True)
        flags = self.spec.flags(self.units)
        if self.spec.streams:
            prefix = os.path.join(out, "cli")
            flags = flags + ["--csv-prefix", prefix]
        child = Child([self.cli] + flags, out)
        if self.spec.streams:
            failed, notes = check_streams(child.code, prefix, self.ref_dir,
                                          self.streams, self.units)
        else:
            failed, notes = check_sweep(child.stdout(), child.code,
                                        self.ref_text, self.labels,
                                        self.units)
        for note in notes[:5]:
            print("  check: %s" % note)
        return child, failed


# --------------------------------------------------------------- runs

def benchmark_names(mode):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[mode]}


def result_line(correct, attempted, failed, values, mode):
    units = benchmark_names(mode)
    if set(values) != set(units):
        raise BenchError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(values), sorted(units)))
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}})


def run_untraced(cli, driver, spec, seconds, scratch):
    full = Checker(cli, driver, spec, spec.units, scratch)
    cut = Checker(cli, driver, spec, 1, scratch)
    attempted = failed = 0

    setups = []
    for _ in range(SETUP_REPS):
        child, bad = cut.run()
        setups.append(child.wall_s)
        attempted += cut.operations
        failed += bad

    rates, rss, walls = [], [], []
    t0 = time.perf_counter()
    while True:
        child, bad = full.run()
        attempted += full.operations
        failed += bad
        walls.append(child.wall_s)
        rates.append(full.texels / child.wall_s / 1e6)
        rss.append(child.maxrss_mb)
        if len(walls) >= MIN_REPS and time.perf_counter() - t0 >= seconds:
            break

    print("%s seed %d: %s" % (spec.workload, spec.seed,
                               " ".join(spec.flags())))
    print("  %d texel accesses per run, %d operations per run"
          % (full.texels, full.operations))
    print("  setup runs (s): %s" % " ".join("%.3f" % s for s in setups))
    print("  full runs (s):  %s" % " ".join("%.3f" % w for w in walls))
    values = {
        "texels_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    for name, value in values.items():
        print("  %-14s %.4f" % (name, value))
    return failed == 0, attempted, failed, values


def run_traced(cli, driver, spec, scratch):
    full = Checker(cli, driver, spec, spec.units, scratch)
    child, failed = full.run()
    attempted = full.operations
    untraced_s = child.wall_s

    out = os.path.join(scratch, "trace")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tr = Child([driver, "--mode", "trace", "--out", out] + spec.flags(), out)
    if tr.code != 0:
        with open(tr.stderr_path) as f:
            sys.stderr.write(f.read())
        raise BenchError("traced run failed (exit %d)" % tr.code)
    with open(os.path.join(out, "layers.json")) as f:
        layers = json.load(f)
    if layers.pop("check.mismatches"):
        failed = attempted  # in-process fused run != capture-and-replay
    attr = {k[5:]: layers.pop(k) for k in list(layers)
            if k.startswith("attr.")}
    layers["sim.unattributed_share"] = 1.0 - attr["implied_s"] / untraced_s
    layers["bench.trace_overhead_share"] = attr["traced_s"] / untraced_s - 1

    units = benchmark_names("per_layer")
    print("%s seed %d (traced): %s" % (spec.workload, spec.seed,
                                        " ".join(spec.flags())))
    print("  %-28s %14s %-8s %-26s %s" % ("layer metric", "value", "unit",
                                          "should move", "on"))
    for name in units:
        moves, on = LAYER_MAP[name]
        print("  %-28s %14.4f %-8s %-26s %s"
              % (name, layers[name], units[name], moves, on))
    print("  attribution of the command's %.3f s (untraced wall):"
          % untraced_s)
    for part in ("build", "raster", "emit", "core"):
        if part + "_s" in attr:
            print("    %-8s %8.3f s  %5.1f%%" % (part, attr[part + "_s"],
                                                100 * attr[part + "_s"]
                                                / untraced_s))
    print("    %-8s %8.3f s  %5.1f%%" % ("sum", attr["implied_s"],
                                        100 * attr["implied_s"] / untraced_s))
    print("  tracing overhead: traced %.3f s vs untraced %.3f s (%+.1f%%)"
          % (attr["traced_s"], untraced_s,
             100 * layers["bench.trace_overhead_share"]))
    return failed == 0, attempted, failed, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        spec = Spec(args.workload, args.seed)
        if not os.path.isfile("BENCHMARK.json"):
            raise BenchError("no BENCHMARK.json here")
        cli, driver = build()
        scratch = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
        try:
            if args.trace:
                result = run_traced(cli, driver, spec, scratch)
                mode = "per_layer"
            else:
                result = run_untraced(cli, driver, spec, args.seconds,
                                      scratch)
                mode = "end_to_end"
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        correct, attempted, failed, values = result
        line = result_line(correct, attempted, failed, values, mode)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    sys.stdout.flush()
    print(line)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
