#!/usr/bin/env python3
"""Builds and runs the GSF benchmark, and compares result sets.

Run one workload (the benchmark command; the last line of standard
output is the result):

    python3 perfbench/run.py --workload fleet-24k --seed 2024 --seconds 35 --trace 0

Other modes:

    python3 perfbench/run.py smoke
        every workload once on tiny inputs, traced and untraced; checks
        that every metric BENCHMARK.json names is reported with its unit
    python3 perfbench/run.py series --out DIR [--runs 10] [--seed-base 1]
                                    [--trace 0] [--workload NAME ...]
        one run per workload and seed, each for run_seconds of
        BENCHMARK.json, results written to DIR
    python3 perfbench/run.py compare DIR_A [DIR_B]
        median and quartiles per workload and metric on each side, the
        per-layer deltas, and a flag on every spread, and every change of
        B against A in either direction, beyond the metric's bound

Run from the repository root. Results go under perfbench/results/ only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the runner; returns the path of its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def machine_facts():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.stdout.strip() or "unknown",
        "commit": commit,
    }


def invoke(binary, workload, seed, seconds, trace, smoke=False, spans=None):
    """Runs one workload in its own process; returns the runner's report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload} exited with code {r.returncode}")
    return json.loads(lines[-1])


def metric_problems(spec, report):
    """Each metric BENCHMARK.json names for this kind of run that the
    report lacks, or gives in another unit."""
    wanted = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    problems = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}: {got}")
    return problems


def result_line(spec, report):
    """The benchmark result: every metric BENCHMARK.json names for this
    kind of run, with the unit it declares."""
    problems = metric_problems(spec, report)
    if problems:
        fail("; ".join(problems))
    wanted = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = {m["name"]: report["metrics"][m["name"]] for m in wanted}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_and_record(spec, binary, args, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = None
    if args.trace:
        os.makedirs(os.path.join(RESULTS, "spans"), exist_ok=True)
        spans = os.path.join(RESULTS, "spans", f"{args.workload}-seed{args.seed}.json")
    report = invoke(binary, args.workload, args.seed, args.seconds, args.trace, spans=spans)
    line = result_line(spec, report)
    record = dict(report, seconds=args.seconds, machine=machine_facts(), result=line)
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return record, line


def print_record(record):
    m = record["machine"]
    info = record["info"]
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{int(info['ops'])} ops, closed loop, 1 client; nproc {m['nproc']}, "
          f"{m['rustc']}, commit {m['commit']}")
    for name, v in record["metrics"].items():
        print(f"  {name:32} {v['value']:>16.6g} {v['unit']}")
    for key, value in info.items():
        print(f"  ({key} = {value:.6g})")
    print(f"  outcome digest {record['digest']}"
          + (" (pinned)" if record["pinned"] else " (not pinned for this seed)"))
    for check in record["checks"]:
        print(f"  FAILED CHECK: {check}")


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()
    record, line = run_and_record(spec, binary, args, os.path.join(RESULTS, "runs"))
    print_record(record)
    print(json.dumps(line))


def cmd_smoke(argv):
    argparse.ArgumentParser(prog="run.py smoke").parse_args(argv)
    spec = load_spec()
    binary = build()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = invoke(binary, w["name"], 2024, 0, trace, smoke=True)
            problems += [f"{w['name']} trace {trace}: {p}"
                         for p in metric_problems(spec, report)]
            if not report["correct"]:
                problems.append(f"{w['name']} trace {trace}: {report['checks']}")
            print(f"smoke {w['name']} trace {trace}: {report['attempted']} ops, "
                  f"{len(report['metrics'])} metrics, correct {report['correct']}")
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}")
    sys.exit(1 if problems else 0)


def cmd_series(argv):
    p = argparse.ArgumentParser(prog="run.py series")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workload", action="append")
    args = p.parse_args(argv)
    spec = load_spec()
    binary = build()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        for seed in range(args.seed_base, args.seed_base + args.runs):
            run_args = argparse.Namespace(workload=name, seed=seed, seconds=spec["run_seconds"],
                                          trace=args.trace)
            record, line = run_and_record(spec, binary, run_args, args.out)
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in line["metrics"].items())
            print(f"{name} seed {seed}: correct {line['correct']}, {values}", flush=True)


def load_results(directory):
    runs = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as f:
                r = json.load(f)
            runs.setdefault((r["workload"], r["trace"]), []).append(r["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    args = p.parse_args(argv)
    spec = load_spec()
    sides = [load_results(args.a)] + ([load_results(args.b)] if args.b else [])
    flags = []
    for w in spec["workloads"]:
        name = w["name"]
        if not any((name, 0) in s for s in sides):
            continue
        print(f"{name}:")
        for m in spec["end_to_end"]:
            stats = []
            for label, side in zip("AB", sides):
                values = [r[m["name"]]["value"] for r in side.get((name, 0), [])]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                stats.append(med)
                mark = ""
                if spread > m["bound"]:
                    mark = " SPREAD>BOUND"
                    flags.append(f"{name} {m['name']} {label} spread {spread:.3f}")
                elif spread < m["bound"] / 3:
                    mark = " steady"
                print(f"  {m['name']:14} {label}: n {len(values):2}  median {med:12.6g}  "
                      f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f} "
                      f"(bound {m['bound']}){mark}")
            if len(stats) == 2:
                change = (stats[1] - stats[0]) / stats[0]
                worse = change if m["better"] == "lower" else -change
                mark = ""
                if abs(change) > m["bound"]:
                    label = "WORSE" if worse > 0 else "BETTER"
                    mark = f" {label}>BOUND"
                    flags.append(f"{name} {m['name']} B {label.lower()} by {abs(change):.3f}")
                print(f"  {m['name']:14} B vs A: {change:+.3f}{mark}")
        for m in spec["per_layer"]:
            medians = []
            for side in sides:
                values = [r[m["name"]]["value"] for r in side.get((name, 1), [])
                          if m["name"] in r]
                medians.append(statistics.median(values) if values else None)
            if all(v is None for v in medians):
                continue
            text = "  ".join("-" if v is None else f"{v:12.6g}" for v in medians)
            delta = ""
            if len(medians) == 2 and None not in medians and medians[0]:
                delta = f"  {(medians[1] - medians[0]) / medians[0]:+.3f}"
            print(f"  {m['name']:32} {text} {m['unit']}{delta}")
    for flag in flags:
        print(f"FLAG: {flag}")
    sys.exit(1 if flags else 0)


def main():
    argv = sys.argv[1:]
    modes = {"smoke": cmd_smoke, "series": cmd_series, "compare": cmd_compare}
    if argv and argv[0] in modes:
        modes[argv[0]](argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
