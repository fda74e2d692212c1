#!/usr/bin/env python3
"""Veritas benchmark: build the benchmark program from source, run one workload, and
print the verdict as the last line of stdout.

    python3 perfbench/run.py --workload fleet_abduct --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 12   # every workload
    python3 perfbench/run.py --self-test                            # counts repeat?

Run from anywhere; paths are resolved against the checkout that holds
this file. The build goes to .bench_build/ at the checkout root (CMake,
Release, the repository's own CMakeLists.txt unmodified); per-run records
and span logs go under .bench_build/results/ and .bench_build/spans/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: every end_to_end metric of BENCHMARK.json with
--trace 0, every per_layer metric with --trace 1 (a layer the workload
does not exercise reads 0). A run whose correctness gates fail prints
correct=false and exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "veritas_perfbench")
RUN_TIMEOUT_S = 170

# Work counts that must repeat exactly for a fixed seed (checked by
# --self-test on every workload that reports them non-zero).
DETERMINISTIC_COUNTS = [
    "net.estimator_rows_per_session",
    "core.estimator_cache.hits",
    "core.estimator_cache.misses",
    "core.estimator_cache.flushes",
    "core.transition.overflow_lookups_per_session",
    "core.transition.distinct_overflow_deltas",
    "core.baum_welch.iterations",
    "sim.replays_per_answer",
    "service.result_cache_hits",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "veritas_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("\n%s\n" % e)
                code = 1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("error: build failed (%s)\n" % " ".join(cmd))
                return False
    return True


def run_program(workload, seed, seconds, trace):
    """Runs one workload; returns (record, human lines) or (None, lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, ["error: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S)]
    lines = proc.stdout.splitlines()
    if proc.stderr:
        lines += proc.stderr.splitlines()
    record = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            record = json.loads(line[len("PERFBENCH_RESULT "):])
    human = [l for l in lines if not l.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or record is None:
        human.append("error: veritas_perfbench exited with %d" % proc.returncode)
        return None, human
    return record, human


def verdict(record, spec, trace):
    """The contract line: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record["metrics"]
    metrics = {}
    correct = record["correct"]
    for m in wanted:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
        elif trace:
            value = 0  # layer not exercised by this workload
        else:
            record["gate_failures"].append("missing metric " + name)
            correct = False
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save_record(record):
    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%s-trace%s.json" % (
        record["workload"], record["seed"], record["trace"]))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)


def run_one(spec, workload, seed, seconds, trace):
    record, human = run_program(workload, seed, seconds, trace)
    for line in human:
        print(line)
    if record is None:
        return None
    save_record(record)
    return verdict(record, spec, trace)


def run_all(spec, seed, seconds, trace):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in spec["workloads"]:
        result = run_one(spec, w["name"], seed, seconds, trace)
        if result is None:
            return None
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (w["name"], name)] = m
            rows.append((w["name"], name, m["value"], m["unit"]))
    print("\n%-18s %-44s %18s  %s" % ("workload", "metric", "value", "unit"))
    for row in rows:
        print("%-18s %-44s %18.6g  %s" % row)
    return total


def self_test(spec, seconds):
    """Every deterministic count repeats exactly across two traced runs."""
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        first, _ = run_program(name, 1, seconds, 1)
        second, _ = run_program(name, 1, seconds, 1)
        if first is None or second is None:
            print("FAIL %s: run failed" % name)
            ok = False
            continue
        for count in DETERMINISTIC_COUNTS:
            a = first["metrics"].get(count, {}).get("value")
            b = second["metrics"].get(count, {}).get("value")
            if a != b:
                print("FAIL %s: %s %r != %r" % (name, count, a, b))
                ok = False
            elif a is not None:
                print("ok   %s: %s = %r" % (name, count, a))
        for record in (first, second):
            if not record["correct"]:
                print("FAIL %s: %s" % (name, record["gate_failures"]))
                ok = False
    print(json.dumps({"correct": ok, "attempted": 2 * len(spec["workloads"]),
                      "failed": 0 if ok else 1, "metrics": {}}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.stderr.write("error: unknown workload %s (have %s)\n"
                         % (args.workload, ", ".join(names)))
        return 2
    if not build():
        return 1
    if args.self_test:
        return self_test(spec, min(seconds, 3))
    if args.workload == "all":
        result = run_all(spec, args.seed, seconds, args.trace)
    else:
        result = run_one(spec, args.workload, args.seed, seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
