#!/usr/bin/env python3
"""Record alternating parent/change runs of perfbench as a BENCH_<n>.json file.

    python3 tools/bench_record.py --parent PATH --out BENCH_16.json \\
        --workloads live_updates,query_tsd --pairs 10 [--seconds 12] \\
        [--seed 7] [--trace 0] [--build-root DIR]
    python3 tools/bench_record.py --check BENCH_16.json [...]
    python3 tools/bench_record.py --compare BENCH_16.json

Recording runs `perfbench/run.py` from the repository root of this tree
(the change) and from PATH (a checkout of the parent commit, e.g. made with
`git clone`), one run of each per pair, swapping which side goes first on
every pair so drift on a shared host falls on both. Each side builds into its
own CARGO_TARGET_DIR under --build-root. Every record holds the workload, the
metric, and per side the median, the interquartile range and n, plus the
number of pairs in which the change was better. Only pairs whose two runs
both succeeded are kept; `failed` counts the operations perfbench reported
failed plus the runs that failed outright.
The file also names both git revisions and a host note. Nothing here gates
on time.

--check only validates files: they must parse, and every record must name a
workload and a metric (end-to-end or per-layer) that BENCHMARK.json
declares.

--compare prints, for every end-to-end record of one file, the change of
the median relative to the parent median next to the parent's IQR relative
to its median and the pairs the change won, and marks each relative change
that is worse than the metric's BENCHMARK.json bound. It exits 1 when any
is.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 1


def log(message):
    print(f"bench_record: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return {w["name"] for w in bench["workloads"]}, metrics


def revision(path):
    def git(*args):
        return subprocess.run(["git", "-C", path, *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    if not sha:
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha, "dirty": bool(git("status", "--porcelain",
                                          "--untracked-files=no"))}


def spread(values, failed):
    """Median, interquartile range and n of one side's values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "n": len(values), "failed": failed, "values": values}


def run_once(root, build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, cwd=root, env=env, capture_output=True,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"{workload} in {root} failed ({result.returncode}):\n"
            + result.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def record(args):
    workloads, metrics = load_spec()
    for workload in args.workloads:
        if workload not in workloads:
            log(f"unknown workload {workload}")
            return 2
    parent = os.path.abspath(args.parent)
    sides = {"parent": parent, "change": ROOT}
    builds = {side: os.path.join(os.path.abspath(args.build_root), side)
              for side in sides}
    records = []
    for workload in args.workloads:
        values = {side: {} for side in sides}
        failed = {side: 0 for side in sides}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            results = {}
            for side in order:
                result = run_once(sides[side], builds[side], workload,
                                  args.seed, args.seconds, args.trace)
                if result is None or not result.get("correct", False):
                    failed[side] += 1
                else:
                    failed[side] += result.get("failed", 0)
                    results[side] = result
            # A pair counts only when both of its runs succeeded, so the
            # value lists stay paired.
            if len(results) == len(sides):
                for side, result in results.items():
                    for name, metric in result["metrics"].items():
                        values[side].setdefault(name, []).append(metric["value"])
            log(f"{workload}: pair {pair + 1}/{args.pairs} done")
        for name in sorted(set(values["parent"]) & set(values["change"])):
            parent_values = values["parent"][name]
            change_values = values["change"][name]
            entry = {"workload": workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "metric": name,
                     "unit": metrics[name]["unit"],
                     "better": metrics[name]["better"],
                     "parent": spread(parent_values, failed["parent"]),
                     "change": spread(change_values, failed["change"])}
            lower = entry["better"] == "lower"
            entry["change_better_pairs"] = sum(
                (c < p) if lower else (c > p)
                for p, c in zip(parent_values, change_values))
            records.append(entry)

    previous = {"records": []}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            previous = json.load(f)
    out = {
        "schema": SCHEMA,
        "recorded": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "revisions": {"parent": revision(parent), "change": revision(ROOT)},
        "host": {"nproc": os.cpu_count(), "note": args.host_note},
        "records": previous["records"] + records,
    }
    write(out, args.out)
    log(f"wrote {len(records)} records to {args.out}")
    return 0


def write(out, path):
    """The header indented, then one record per line, so diffs stay small."""
    head = json.dumps({k: v for k, v in out.items() if k != "records"},
                      indent=1)
    records = ",\n  ".join(json.dumps(r) for r in out["records"])
    with open(path, "w") as f:
        f.write(head[:-2] + ',\n "records": [\n  ' + records + "\n ]\n}\n")


def check(paths):
    workloads, metrics = load_spec()
    errors = []
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError) as error:
            errors.append(f"{path}: {error}")
            continue
        if data.get("schema") != SCHEMA or not data.get("records"):
            errors.append(f"{path}: no schema-{SCHEMA} records")
            continue
        for i, entry in enumerate(data["records"]):
            if entry.get("workload") not in workloads:
                errors.append(f"{path}: record {i} names unknown workload "
                              f"{entry.get('workload')}")
            name = entry.get("metric")
            if name not in metrics:
                errors.append(f"{path}: record {i} names unknown metric {name}")
    for error in errors:
        log(error)
    return 1 if errors else 0


def compare(path):
    with open(path) as f:
        data = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(f)["end_to_end"]}
    header = ("workload", "seed", "trace", "metric", "parent", "change",
              "delta", "parent iqr", "won", "")
    rows = []
    past = 0
    for entry in data["records"]:
        name = entry["metric"]
        if name not in bounds:
            continue
        parent, change = entry["parent"], entry["change"]
        base = parent["median"]
        delta = (change["median"] - base) / base if base else 0.0
        worse = delta if entry["better"] == "lower" else -delta
        flag = f"past bound {bounds[name]:.0%}" if worse > bounds[name] else ""
        past += bool(flag)
        rows.append((entry["workload"], str(entry["seed"]),
                     str(entry["trace"]), name, f"{base:.4g}",
                     f"{change['median']:.4g}", f"{delta:+.1%}",
                     f"{parent['iqr'] / base:.1%}" if base else "-",
                     f"{entry['change_better_pairs']}/{change['n']}", flag))
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    log(f"{path}: {past} of {len(rows)} end-to-end ratios past their bound")
    return 1 if past else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="FILE")
    parser.add_argument("--compare", metavar="FILE",
                        help="print each end-to-end change against its bound")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--out", help="BENCH_<n>.json to write")
    parser.add_argument("--append", action="store_true",
                        help="keep the records already in --out")
    parser.add_argument("--workloads", type=lambda s: s.split(","))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root", default=".bench_record")
    parser.add_argument("--host-note", default="")
    args = parser.parse_args()
    if args.check:
        return check(args.check)
    if args.compare:
        return compare(args.compare)
    if not (args.parent and args.out and args.workloads):
        parser.error("recording needs --parent, --out and --workloads")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
