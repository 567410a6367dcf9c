#!/usr/bin/env python3
"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload sim-spill [--seed N] \
        [--seconds S] [--trace 0|1]

Builds perfbench/ (and with it the library under src/) into
$CARGO_TARGET_DIR, default .bench_build, then starts repetitions of the
workload, one process each, until --seconds have passed. Every
repetition's output is checked against a reference counted from the same
generated input, and a fixed calibration kernel is timed before the
first repetition and after each one. With --trace 0 the end-to-end
metrics are the medians over the repetitions, with every time scaled by
the host's speed over the run (README.md, "Host-normalized times");
with --trace 1 untraced and traced repetitions alternate and the
per-layer metrics come from the traced ones.

Prints every metric by name with its unit, the host and build, then as
its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits 1 when any repetition's output disagrees with its
reference or the run fails; 0 otherwise. perfbench/README.md documents
the workloads and metrics.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sim-spill", "sim-relocate", "rt-saturate")
# The held-out seed, 2007, is used only to confirm a change's claim
# (README.md).
DEFAULT_SEED = 42
REP_TIMEOUT_S = 150
# About the calibration kernel's seconds on the 4-core VM the benchmark
# was defined on. A run's host speed is this over the kernel's mean time
# in the run, and the run's times are multiplied by that speed
# (README.md, "Host-normalized times").
CALIBRATION_REFERENCE_S = 0.6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "runtime_results": "results",
    "throughput_tps": "tuples/s",
    "peak_rss_mib": "MiB",
    "rss_bytes_per_tuple": "B",
}

PER_LAYER = {
    "runtime.run_s": "s",
    "runtime.drain_s": "s",
    "runtime.collect_s": "s",
    "cleanup.run_s": "s",
    "cleanup.read_mib": "MiB",
    "cleanup.segments_read": "count",
    "cleanup.prefetch_stalls": "count",
    "cleanup.peak_resident_mib": "MiB",
    "cleanup.block_read_retries": "count",
    "stream.emit_ns": "ns",
    "operators.route_ns": "ns",
    "rt.spsc_hop_ns": "ns",
    "rt.messages": "count",
    "rt.mib": "MiB",
    "rt.backpressure_parks": "count",
    "rt.busy_generator": "ratio",
    "rt.busy_split": "ratio",
    "rt.busy_engine": "ratio",
    "rt.busy_sink": "ratio",
    "net.send_deliver_ns": "ns",
    "net.messages": "count",
    "net.mib": "MiB",
    "net.state_transfer_mib": "MiB",
    "state.probe_insert_ns": "ns",
    "state.evict_ns": "ns",
    "state.extract_mib_s": "MiB/s",
    "state.install_mib_s": "MiB/s",
    "state.peak_mib": "MiB",
    "tuple.encode_mib_s": "MiB/s",
    "tuple.decode_mib_s": "MiB/s",
    "storage.write_mib_s": "MiB/s",
    "storage.read_mib_s": "MiB/s",
    "storage.spill_events": "count",
    "storage.segments_written": "count",
    "storage.encoded_mib": "MiB",
    "storage.encoded_ratio": "ratio",
    "engine.tuples_processed": "count",
    "engine.results_per_tuple": "ratio",
    "engine.skew": "ratio",
    "engine.cold_probe_misses": "count",
    "engine.max_spill_stall_ticks": "ticks",
    "engine.evicted_tuples": "count",
    "engine.spill_write_failures": "count",
    "core.relocations": "count",
    "core.relocation_abort_share": "ratio",
    "core.relocated_mib": "MiB",
    "core.forced_spills": "count",
    "host.steal_share": "ratio",
    "host.speed": "ratio",
    "trace.overhead_share": "ratio",
    "replay.coverage": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    # Field 8 of the cpu line is steal time.
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def source_identity():
    """The commit when the checkout is a git clone, and always a hash of
    the program sources, which identifies a checkout that is not."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def clear(directory):
    for entry in os.scandir(directory):
        shutil.rmtree(entry.path, ignore_errors=True)


def run_rep(binary, args, tmp_dir, index):
    """Runs one repetition; returns (record or None, exit code)."""
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("repetition %d timed out after %d s" % (index, REP_TIMEOUT_S))
        return None, -1
    finally:
        clear(tmp_dir)
    if proc.stderr:
        log(proc.stderr.rstrip())
    record = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return record, proc.returncode


def calibrate(binary):
    """Seconds of one run of the host calibration kernel; None on error."""
    try:
        proc = subprocess.run([binary, "--calibrate"], capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("calibration timed out after %d s" % REP_TIMEOUT_S)
        return None
    if proc.returncode != 0:
        log(proc.stderr.rstrip())
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["calibration_s"]


def reference(binary, workload, seed, last_tick, drop_one_tuple):
    """The tuple and result counts the run's input must yield."""
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--reference-last-tick=%d" % last_tick]
    if drop_one_tuple:
        args.append("--drop-one-tuple")
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("reference timed out after %d s" % REP_TIMEOUT_S)
        return None
    if proc.returncode != 0:
        log(proc.stderr.rstrip())
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_matches(record, code, ref):
    """A repetition passes when it ran without error and its input and
    complete output (run-time + cleanup results) equal the reference."""
    if code != 0 or record is None or ref is None or record["error"]:
        return False
    if (record["tuples"], record["total_results"]) != (ref["tuples"],
                                                       ref["results"]):
        log("output mismatch: %d results from %d tuples, reference %d from "
            "%d" % (record["total_results"], record["tuples"],
                    ref["results"], ref["tuples"]))
        return False
    return True


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records, speed):
    """Medians over the repetitions, with the times multiplied by the
    run's host speed (1 gives the raw times)."""
    measured = [r for r in records if r is not None]
    setup = [s for r in measured for s in r["setup_s"]]
    return {
        "wall_s": median([r["wall_s"] for r in measured]) * speed,
        "setup_s": median(setup) * speed,
        "runtime_results": median([r["runtime_results"] for r in measured]),
        "throughput_tps": median([r["tuples"] / r["run_s"]
                                  for r in measured if r["run_s"] > 0]) /
                          speed,
        "peak_rss_mib": median([r["peak_rss_bytes"] / 2**20
                                for r in measured]),
        "rss_bytes_per_tuple": median([r["peak_rss_bytes"] / r["tuples"]
                                       for r in measured if r["tuples"] > 0]),
    }


def per_layer(untraced, traced, steal, speed):
    measured = [r for r in traced if r is not None]
    values = {}
    for name in PER_LAYER:
        samples = [r["layers"][name] for r in measured if name in r["layers"]]
        values[name] = median(samples)
    values["host.steal_share"] = steal
    values["host.speed"] = speed
    plain = median([r["driver_s"] for r in untraced if r is not None])
    spanned = median([r["driver_s"] for r in measured])
    values["trace.overhead_share"] = ((spanned - plain) / plain
                                      if plain else 0.0)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: every reference is counted over the input minus one
    # joining tuple, so every repetition must fail the output check.
    parser.add_argument("--drop-one-tuple", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^63) and --seconds >= 1")
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the
    # process it is waiting on instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed; no measurement")
        return 1

    # Repetitions keep any temporary files inside the checkout.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    clear(tmp_dir)
    trace_dir = os.path.join(build_dir, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    base = ["--workload=" + args.workload, "--seed=%d" % args.seed]
    references = {}

    load_before = os.getloadavg()
    cpu_before = cpu_times()
    start = time.monotonic()
    calibrations = [calibrate(binary)]
    untraced, traced, passed, rep_seconds = [], [], [], []
    index = 0
    while True:
        # A traced run alternates untraced and traced repetitions so the
        # difference between them is the tracing overhead.
        pair = [False, True] if args.trace else [False]
        for spanned in pair:
            rep_args = list(base)
            if spanned:
                spans = os.path.join(trace_dir, "%s-seed%d-rep%d.json" %
                                     (args.workload, args.seed, index))
                rep_args += ["--traced", "--spans-out=" + spans]
            t0 = time.monotonic()
            record, code = run_rep(binary, rep_args, tmp_dir, index)
            calibrations.append(calibrate(binary))
            rep_seconds.append(time.monotonic() - t0)
            if None in calibrations:
                log("perfbench: calibration failed; no measurement")
                return 1
            (traced if spanned else untraced).append(record)
            ref = None
            if record is not None:
                # The input is fixed per seed, so one reference serves
                # every repetition that emitted the same ticks.
                last_tick = int(record["last_tick"])
                if last_tick not in references:
                    references[last_tick] = reference(
                        binary, args.workload, args.seed, last_tick,
                        args.drop_one_tuple)
                ref = references[last_tick]
            passed.append(output_matches(record, code, ref))
            index += 1
        elapsed = time.monotonic() - start
        # Start another round only if it fits in the measured time.
        round_s = sum(rep_seconds) / len(rep_seconds) * len(pair)
        if elapsed + round_s > args.seconds:
            break
    steal = steal_share(cpu_before, cpu_times())
    load_after = os.getloadavg()
    speed = CALIBRATION_REFERENCE_S / statistics.mean(calibrations)

    attempted = len(passed)
    failed = passed.count(False)
    correct = failed == 0
    if args.trace:
        metrics = per_layer(untraced, traced, steal, speed)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, speed)
        units = END_TO_END
    raw = end_to_end(untraced, 1.0)

    commit, source_sha = source_identity()
    measured = [r for r in untraced + traced if r is not None]
    build_type = measured[0]["build_type"] if measured else "unknown"
    compiler = measured[0]["compiler"] if measured else "unknown"
    host = {
        "nproc": os.cpu_count(),
        "build_type": build_type,
        "compiler": compiler,
        "commit": commit,
        "source_sha256": source_sha,
        "loadavg_before": load_before[0],
        "loadavg_after": load_after[0],
        "host.steal_share": steal,
        "host.speed": speed,
    }
    print("perfbench %s seed %d: %d repetitions in %.1f s (%s)" % (
        args.workload, args.seed, attempted, time.monotonic() - start,
        "traced" if args.trace else "untraced"))
    print("host: " + " ".join("%s=%s" % kv for kv in host.items()))
    if build_type != "Release":
        print("WARNING: %s build; timings are not comparable to a Release "
              "build" % build_type)
    for name, value in metrics.items():
        print("%-30s %.6g %s" % (name, value, units[name]))
    print("raw, not host-normalized: " + " ".join(
        "%s=%.6g" % (name, raw[name])
        for name in ("wall_s", "setup_s", "throughput_tps")))
    print("host speed %.4f from calibrations of %s s" % (speed, " ".join(
        "%.3f" % c for c in calibrations)))
    print("%-30s %.6g ratio (%d of %d repetitions failed)" % (
        "failed_share", failed / attempted, failed, attempted))

    record_dir = os.path.join(build_dir, "perfbench-runs")
    os.makedirs(record_dir, exist_ok=True)
    with open(os.path.join(record_dir, "%s-%s-seed%d-trace%d.json" % (
            time.strftime("%Y%m%dT%H%M%S"), args.workload, args.seed,
            args.trace)), "w") as f:
        json.dump({"host": host, "metrics": metrics, "raw": raw,
                   "calibration_s": calibrations, "untraced": untraced,
                   "traced": traced}, f, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
