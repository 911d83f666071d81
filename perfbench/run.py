#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root. It builds perfbench/ (the library sources
under src/ compiled by perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, generates the workload's inputs from the
seed in one process, measures them in another, and prints the result as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, taken from spans kept in memory and written to
<build>/traces/<workload>-seed<N>.jsonl at the end. Every run checks that
it emitted exactly the metrics BENCHMARK.json and perfbench/layer_map.json
name, with their units, and fails otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    return bench, layer_map


def spec_errors(bench, layer_map):
    """Consistency of BENCHMARK.json with layer_map.json."""
    errors = []
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    mapped = set(layer_map["layers"])
    for name in sorted(per_layer - mapped):
        errors.append(f"per-layer metric {name} has no entry in layer_map.json")
    for name in sorted(mapped - per_layer):
        errors.append(f"layer_map.json names {name}, which BENCHMARK.json lacks")
    for name, entry in layer_map["layers"].items():
        for metric, workload in entry["moves"]:
            if metric not in e2e or workload not in workloads:
                errors.append(f"{name} moves unknown {metric} on {workload}")
    return errors


def build(root, build_dir):
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=root, env=env, stdout=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], cwd=root, env=env,
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "core")):
        log("no library sources under ./src; run from the repository root")
        return 2
    bench, layer_map = load_spec(root)
    errors = spec_errors(bench, layer_map)
    if errors:
        for error in errors:
            log(error)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, os.path.join(build_dir, "perfbench"))

    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--dir", work]
    try:
        gen = subprocess.run([binary, "gen"] + common, stdout=sys.stderr,
                             timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            log(f"input generation failed ({gen.returncode})")
            return 1
        command = [binary, "run"] + common + ["--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--spans", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl")]
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"measurement failed ({run.returncode})")
        return 1
    result = json.loads(lines[-1])

    # Self-check: exactly the declared metrics, with the declared units.
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != units:
        for name in sorted(set(units) - set(emitted)):
            log(f"metric {name} not emitted")
        for name in sorted(set(emitted) - set(units)):
            log(f"metric {name} emitted but not declared")
        for name in sorted(set(units) & set(emitted)):
            if units[name] != emitted[name]:
                log(f"metric {name}: unit {emitted[name]}, declared {units[name]}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
