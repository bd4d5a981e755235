#!/usr/bin/env python3
"""nmcount benchmark: builds the library in Release from source, runs the
workloads through nmc_benchmark (benchmark/nmc_benchmark.cc), checks every
output and
aggregates the metrics.

  run.py --workload W --seed N --seconds S --trace 0|1
      One workload. --trace 0 runs PROCESSES timed processes (S/PROCESSES
      seconds of reps each, pooled) plus, on a concurrent workload, one
      untimed verification pass, and reports the end-to-end metrics.
      --trace 1 runs one traced process and reports the per-layer metrics.
      The last stdout line is the JSON result.
  run.py [--seed=N]
      The full set: every workload in PROCESSES processes interleaved across
      workloads, one verification pass per concurrent workload, and one
      traced process per workload. Prints a table; exits non-zero on any
      failed check.
  run.py --smoke
      Every workload at n = 2^16, one traced process each.
  run.py --repeatability [--seed=N]
      Two full sets of the same build, compared row by row (compare.py).

Results go to build-bench/results/, traces to build-bench/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
LIB_BUILD = BUILD / "nmcount"
BENCH_BUILD = BUILD / "benchmark"
BINARY = BENCH_BUILD / "nmc_benchmark"

WORKLOADS = [
    "sim_zero_drift_rr",
    "sim_drift_block",
    "threads_zero_drift_read",
    "sockets_drift_read",
]
CONCURRENT = {"threads_zero_drift_read", "sockets_drift_read"}

# Processes per workload in a timed set. Single processes disagreed by
# 15-30% on the concurrent backends (thread placement); pooling the reps of
# several processes is what makes two sets agree.
PROCESSES = 5
FULL_SET_SECONDS_PER_PROCESS = 2.0
SMOKE_LOG2_N = 16
PROCESS_TIMEOUT_S = 150

# name: (unit, better, bound). The bound is the share of the baseline median
# by which the metric may worsen before it counts as a regression. Timings
# on a shared host drift with other tenants' load (README.md, "Sizing"), so
# updates_per_sec gets the widest bound below setup_s's.
END_TO_END = {
    "updates_per_sec": ("updates/s", "higher", 0.24),
    "messages_per_update": ("msgs/update", "lower", 0.05),
    "wire_bytes_per_update": ("bytes/update", "lower", 0.02),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}
# Reported by every full set but not on the --workload result line: it must
# read 0, and a metric that is always 0 has no spread to bound. The
# line carries it as "failed" / "correct".
FAILED_FRACTION = ("failed_update_fraction", "fraction", "lower", 0.0)

# Units of every per-layer metric the traced run reports (README.md,
# "Per-layer metrics").
LAYER_UNITS = {
    "core.busy_s_per_mupdate": "s/Mupdate",
    "core.call_ns_p50": "ns",
    "core.call_ns_p99": "ns",
    "core.call_samples": "count",
    "core.updates_per_call": "updates/call",
    "core.site_to_coordinator_per_update": "msgs/update",
    "core.coordinator_to_site_per_update": "msgs/update",
    "core.broadcasts_per_mupdate": "1/Mupdate",
    "core.sbc_syncs": "count",
    "core.straight_reports": "count",
    "core.stage_switches": "count",
    "core.phase2_switch_update": "update",
    "core.arena_high_water_bytes": "bytes",
    "runtime.self_s_per_mupdate": "s/Mupdate",
    "sim.self_s_per_mupdate": "s/Mupdate",
    "runtime.transport_self_s_per_mupdate": "s/Mupdate",
    "runtime.coordinator_offcpu_fraction": "fraction",
    "runtime.publishes_per_update": "1/update",
    "runtime.echo_delivery_ratio": "ratio",
    "runtime.reads_per_sec": "reads/s",
    "runtime.torn_read_ratio": "ratio",
    "runtime.generation_regressions": "count",
    "runtime.frames_per_update": "frames/update",
    "runtime.updates_per_poll_round": "updates/round",
    "runtime.nacks": "count",
    "runtime.duplicate_updates": "count",
    "runtime.transport_units": "count",
    "runtime.wire_codec_ns_per_frame": "ns/frame",
    "streams.generate_s": "s",
    "runtime.shard_s": "s",
    "registry.construct_s": "s",
    "proc.cpu_s_per_mupdate": "s/Mupdate",
    "proc.involuntary_switches_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.residual_fraction": "fraction",
}

# The per-layer metrics the --trace 1 result carries: those measured on
# every workload and most likely to move under an optimisation. The rest
# exist only on some transports (sim.self_s_per_mupdate, the reader and
# link counters) or never move (regressions, NACKs); they stay in the
# result file.
PER_LAYER = [
    "core.busy_s_per_mupdate",
    "core.call_ns_p50",
    "core.call_ns_p99",
    "core.call_samples",
    "core.updates_per_call",
    "core.site_to_coordinator_per_update",
    "core.coordinator_to_site_per_update",
    "core.broadcasts_per_mupdate",
    "core.sbc_syncs",
    "core.straight_reports",
    "core.stage_switches",
    "core.arena_high_water_bytes",
    "runtime.self_s_per_mupdate",
    "runtime.coordinator_offcpu_fraction",
    "runtime.publishes_per_update",
    "runtime.frames_per_update",
    "runtime.updates_per_poll_round",
    "runtime.wire_codec_ns_per_frame",
    "streams.generate_s",
    "registry.construct_s",
    "proc.cpu_s_per_mupdate",
    "proc.involuntary_switches_per_s",
    "trace.overhead_ratio",
    "trace.residual_fraction",
]


class BenchError(Exception):
    pass


# ---- statistics ---------------------------------------------------------


def summarize(values):
    """Median, quartiles (statistics.quantiles, exclusive method) and count."""
    values = [float(v) for v in values]
    if not values:
        raise BenchError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


# ---- build --------------------------------------------------------------


def run_logged(cmd, log):
    log.write("$ " + " ".join(str(c) for c in cmd) + "\n")
    log.flush()
    done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        raise BenchError(f"command failed ({done.returncode}): {' '.join(map(str, cmd))}")


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures the repository root in Release in its own build tree,
    builds the libraries nmc_benchmark links, then builds the benchmark package
    with the compiler that tree recorded."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an nmcount checkout (no CMakeLists.txt / src)")
    BUILD.mkdir(exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(len(os.sched_getaffinity(0)))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        try:
            if not (LIB_BUILD / "CMakeCache.txt").exists():
                run_logged(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator, log)
            run_logged(["cmake", "--build", LIB_BUILD, "-j", jobs, "--target",
                        "nmc_runtime", "nmc_registry", "nmc_streams"], log)
            if not (BENCH_BUILD / "CMakeCache.txt").exists():
                run_logged(["cmake", "-S", ROOT / "benchmark", "-B", BENCH_BUILD,
                            "-DCMAKE_CXX_COMPILER=" + cache_value(LIB_BUILD, "CMAKE_CXX_COMPILER"),
                            f"-DNMC_SOURCE_DIR={ROOT}", f"-DNMC_BUILD_DIR={LIB_BUILD}"]
                           + generator, log)
            run_logged(["cmake", "--build", BENCH_BUILD, "-j", jobs], log)
        except BenchError as e:
            raise BenchError(f"{e}\n(build log: {log_path})\n"
                             + "".join(open(log_path).readlines()[-20:])) from None


def host_facts(seed, simd):
    cpu_model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value(LIB_BUILD, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    flags = ""
    for entry in json.loads((LIB_BUILD / "compile_commands.json").read_text()):
        if entry["file"].endswith("core/nonmonotonic_counter.cc"):
            flags = " ".join(t for t in entry["command"].split()[1:]
                             if t.startswith("-") and not t.startswith(("-I", "-o")))
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": f"{compiler} ({version.stdout.splitlines()[0] if version.stdout else '?'})",
        "compile_flags": flags,
        "build_type": cache_value(LIB_BUILD, "CMAKE_BUILD_TYPE"),
        "simd": simd,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
        "seed": seed,
    }


# ---- nmc_benchmark processes --------------------------------------------


def drive(workload, seed, seconds=None, log2_n=None, trace_out=None, verify=False):
    """Runs one nmc_benchmark process; returns its parsed JSON. Exit 1 still carries
    a result (a failed check, listed in its errors or failed count), so it
    is returned, not raised."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"]
    if seconds is not None:
        cmd.append(f"--seconds={seconds}")
    if log2_n is not None:
        cmd.append(f"--log2_n={log2_n}")
    if trace_out is not None:
        cmd.append(f"--trace_out={trace_out}")
    if verify:
        cmd.append("--verify")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: nmc_benchmark did not finish in {PROCESS_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: nmc_benchmark exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


class WorkloadRuns:
    """Every nmc_benchmark process of one workload in one set."""

    def __init__(self, workload):
        self.workload = workload
        self.timed = []
        self.verify = None
        self.traced = None

    def processes(self):
        return self.timed + [p for p in (self.verify, self.traced) if p is not None]

    def errors(self):
        return [e for p in self.processes() for e in p["errors"]]

    def attempted(self):
        return sum(p["attempted"] for p in self.processes())

    def failed(self):
        return sum(p["failed"] for p in self.processes())

    def correct(self):
        return not self.errors() and self.failed() == 0

    def end_to_end(self):
        """Medians over the pooled untraced reps of every process that has
        them (the timed processes; the traced one in a smoke run)."""
        sources = self.timed or [self.traced]
        reps = [r for p in sources for r in p["reps"] if not r["warmup"] and not r["traced"]]
        out = {}
        for name, (unit, _, _) in END_TO_END.items():
            if name == "peak_rss_mb":
                values = [p["peak_rss_mb"] for p in sources]
            elif name == "setup_s":
                values = [s["setup_s"] for p in sources for s in p["setups"]]
            else:
                values = [r[name] for r in reps]
            out[name] = dict(summarize(values), unit=unit)
        name, unit, _, _ = FAILED_FRACTION
        out[name] = dict(summarize([self.failed() / max(1, self.attempted())]), unit=unit)
        return out

    def per_layer(self):
        """Medians over the traced reps of the traced process, for every
        per-layer metric nmc_benchmark reports."""
        p = self.traced
        traced = [r["layers"] for r in p["reps"] if r["traced"]]
        untraced = [r["wall_s"] for r in p["reps"] if not r["warmup"] and not r["traced"]]
        traced_wall = [r["wall_s"] for r in p["reps"] if r["traced"]]
        values = {name: [t[name] for t in traced] for name in traced[0]}
        for name, key in (("streams.generate_s", "generate_s"),
                          ("runtime.shard_s", "shard_s"),
                          ("registry.construct_s", "construct_s")):
            values[name] = [s[key] for s in p["setups"]]
        values["trace.overhead_ratio"] = [statistics.median(traced_wall) /
                                          statistics.median(untraced)]
        values["trace.residual_fraction"] = [p["trace.residual_fraction"]]
        out = {name: dict(summarize(v), unit=LAYER_UNITS[name]) for name, v in values.items()}
        missing = [m for m in PER_LAYER if m not in out]
        if missing:
            raise BenchError(f"{self.workload}: traced run lacks {missing}")
        return out

    def record(self):
        out = {
            "correct": self.correct(),
            "attempted": self.attempted(),
            "failed": self.failed(),
            "errors": self.errors(),
            "processes": len(self.timed),
            "n": self.processes()[0]["n"],
            "concurrency": self.processes()[0]["concurrency"],
        }
        if self.timed or self.traced:
            out["end_to_end"] = self.end_to_end()
        if self.traced:
            out["per_layer"] = self.per_layer()
            out["trace_file"] = self.traced["trace_file"]
        if self.verify or (self.traced and self.traced["verify"]):
            out["verify"] = (self.verify or self.traced)["verify"]
        return out


def process_seed(seed, index):
    """The seed of a run's index-th timed process. Message cost still moves
    a few percent from seed to seed, so each process draws its own inputs
    and the run's median pools PROCESSES of them."""
    return seed * PROCESSES + index


def trace_path(workload, seed):
    (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    return BUILD / "traces" / f"{workload}-seed{seed}.trace.json"


def run_traced(runs, seed, seconds=None, log2_n=None):
    path = trace_path(runs.workload, seed)
    runs.traced = drive(runs.workload, seed, seconds=seconds, log2_n=log2_n, trace_out=path)
    runs.traced["trace_file"] = str(path.relative_to(ROOT))


def run_set(seed, seconds_per_process, traced=True):
    """The full set: PROCESSES rounds, each running every workload once, so
    host load and thread placement spread over all workloads."""
    runs = {w: WorkloadRuns(w) for w in WORKLOADS}
    for i in range(PROCESSES):
        for w in WORKLOADS:
            runs[w].timed.append(drive(w, process_seed(seed, i), seconds=seconds_per_process))
    for w in WORKLOADS:
        if w in CONCURRENT:
            runs[w].verify = drive(w, seed, verify=True)
    if traced:
        for w in WORKLOADS:
            run_traced(runs[w], seed, seconds=seconds_per_process)
    return runs


def write_result(name, seed, runs):
    simd = next(iter(runs.values())).processes()[0]["simd"]
    result = {
        "schema": "nmcount-benchmark-v1",
        "host": host_facts(seed, simd),
        "workloads": {w: r.record() for w, r in runs.items()},
    }
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    path = BUILD / "results" / f"{name}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result, path


# ---- reporting ----------------------------------------------------------


def fmt(x):
    return f"{x:.4g}"


def print_table(result):
    host = result["host"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} simd={host['simd']} "
          f"build={host['build_type']} commit={host['git_commit'][:12]} seed={host['seed']}")
    for w, rec in result["workloads"].items():
        status = "ok" if rec["correct"] else "FAILED " + "; ".join(rec["errors"])
        print(f"\n{w}  (n={rec['n']}, {rec['concurrency']} threads/processes, "
              f"{rec['attempted']} updates checked, {rec['failed']} failed: {status})")
        for section in ("end_to_end", "per_layer"):
            for name, m in rec.get(section, {}).items():
                print(f"  {name:40s} {fmt(m['median']):>12s} {m['unit']:14s} "
                      f"[q1 {fmt(m['q1'])}, q3 {fmt(m['q3'])}, n={m['n']}]")
        if "verify" in rec:
            print(f"  verify: {rec['verify']}")
        if "trace_file" in rec:
            print(f"  trace: {rec['trace_file']}")


def result_line(rec, trace):
    if trace:
        metrics = {m: rec["per_layer"][m] for m in PER_LAYER}
    else:
        metrics = {m: rec["end_to_end"][m] for m in END_TO_END}
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m: {"value": v["median"], "unit": v["unit"]} for m, v in metrics.items()},
    })


# ---- modes --------------------------------------------------------------


def mode_workload(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    runs = WorkloadRuns(args.workload)
    if args.trace:
        run_traced(runs, args.seed, seconds=args.seconds)
    else:
        for i in range(PROCESSES):
            runs.timed.append(drive(args.workload, process_seed(args.seed, i),
                                    seconds=args.seconds / PROCESSES))
        if args.workload in CONCURRENT:
            runs.verify = drive(args.workload, args.seed, verify=True)
    result, path = write_result(f"{args.workload}-seed{args.seed}-trace{int(args.trace)}",
                                args.seed, {args.workload: runs})
    print(f"result: {path.relative_to(ROOT)}")
    rec = result["workloads"][args.workload]
    print(result_line(rec, args.trace))
    return 0 if rec["correct"] else 1


def mode_full(args):
    runs = run_set(args.seed, FULL_SET_SECONDS_PER_PROCESS)
    result, path = write_result(f"full-seed{args.seed}", args.seed, runs)
    print_table(result)
    print(f"\nresult: {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


def mode_smoke(args):
    runs = {w: WorkloadRuns(w) for w in WORKLOADS}
    for w in WORKLOADS:
        run_traced(runs[w], args.seed, seconds=0, log2_n=SMOKE_LOG2_N)
    result, path = write_result(f"smoke-seed{args.seed}", args.seed, runs)
    print_table(result)
    print(f"\nresult: {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


def mode_repeatability(args):
    import compare  # benchmark/compare.py, next to this file

    paths = []
    for label in ("a", "b"):
        runs = run_set(args.seed, FULL_SET_SECONDS_PER_PROCESS, traced=False)
        result, path = write_result(f"repeat-{label}-seed{args.seed}", args.seed, runs)
        if not all(r["correct"] for r in result["workloads"].values()):
            print_table(result)
            return 1
        paths.append(path)
    rows = compare.compare(json.loads(paths[0].read_text()), json.loads(paths[1].read_text()))
    compare.print_rows(rows)
    return 0 if all(r["verdict"] in ("no worse", "improved") for r in rows) else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeatability", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        if args.workload:
            return mode_workload(args)
        if args.smoke:
            return mode_smoke(args)
        if args.repeatability:
            return mode_repeatability(args)
        return mode_full(args)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
