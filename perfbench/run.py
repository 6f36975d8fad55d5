#!/usr/bin/env python3
"""Build and run the gpumip benchmark (see perfbench/README.md).

One run, as BENCHMARK.json's command:
    python3 perfbench/run.py --workload bnb_tree --seed 1 --seconds 25 --trace 0

Steadiness (runs each workload on seeds 1..N, prints quartiles and spreads
against the bounds in BENCHMARK.json, optionally saves or compares; exits 1
when a spread is over its bound or, with --compare, a median is worse than
the saved set's by more than its bound):
    python3 perfbench/run.py --repeat 10 [--workloads bnb_tree,uc_ipm]
        [--trace 0] [--save FILE] [--compare FILE]

Self-tests (input determinism, bit-identical simulated makespan, fault drill):
    python3 perfbench/run.py --self-test

Run from the repository root. gpumip_bench is built from ../src with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 840
# Provenance fields that must match before two result sets are compared.
FINGERPRINT = ("build_type", "GPUMIP_OBS", "GPUMIP_CHECKED", "compiler", "nproc", "cpu")
# Metrics whose bound gates only the move of the median between two sets,
# not the spread within one: set-up lasts well under a second and is timed a
# few times per run, so its spread is the machine's drift over that second
# (README.md, "Steadiness").
MEDIAN_GATED = ("setup_s",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (ROOT / "src" / "mip" / "solver.hpp").is_file():
        raise SystemExit(f"perfbench: no gpumip sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return out / "gpumip_bench"


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0 and (ROOT / ".git").exists():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.[ch]pp")) + list(HERE.glob("*.[ch]pp"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs gpumip_bench; returns (provenance dict, result dict). Raises on failure."""
    out_dir = build_dir() / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(out_dir), "--source", source_id(), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: gpumip_bench exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return provenance, json.loads(lines[-1])


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def repeat(args, binary):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    summary = {"provenance": None, "trace": args.trace, "seconds": seconds, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        values, units = {}, {}
        for seed in range(1, args.repeat + 1):
            provenance, result = run_once(binary, workload, seed, seconds, args.trace, echo=False)
            summary["provenance"] = {f: provenance[f] for f in FINGERPRINT}
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect output ({result['failed']} failed)")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            values.setdefault("failed_frac", []).append(result["failed"] / result["attempted"])
            log(f"{workload} seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
        summary["workloads"][workload] = {}
        print(f"\n{workload}: seeds 1-{args.repeat}, {seconds} s each")
        print(f"  {'metric':26} {'unit':>8} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if name == "failed_frac":
                print(f"  {name:26} {'':>8} {'':>12} {statistics.median(vals):12.6g}")
                continue
            q1, med, q3, s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name in MEDIAN_GATED:
                flag = "  median-gated"
            elif bound is not None:
                worst = max(worst, s / bound)
                flag = "  OVER BOUND" if s > bound else ("  over bound/3" if s > bound / 3 else "")
            print(f"  {name:26} {units[name]:>8} {q1:12.6g} {med:12.6g} {q3:12.6g} {s:8.4f} {bound if bound else '':>6}{flag}")
            summary["workloads"][workload][name] = {"values": vals, "median": med, "spread": s}
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"\nsaved to {args.save}")
    worse = 0
    if args.compare:
        worse = compare(json.loads(Path(args.compare).read_text()), summary, bounds, better)
    return 0 if worst <= 1.0 and worse == 0 else 1


def compare(base, new, bounds, better):
    """Median-vs-median check of two saved result sets, per metric and
    workload. Returns the number of medians worse than their bound allows."""
    if base["provenance"] != new["provenance"]:
        raise SystemExit("refusing to compare results from different machines or builds:\n"
                         f"  base {base['provenance']}\n  new  {new['provenance']}")
    print("\ncompare (new vs base median; 'WORSE' beyond the bound fails)")
    worse_count = 0
    for workload, metrics in new["workloads"].items():
        for name, m in metrics.items():
            b = base["workloads"].get(workload, {}).get(name)
            bound = bounds.get(name)
            if b is None or bound is None or not b["median"]:
                continue
            change = (m["median"] - b["median"]) / b["median"]
            worse = -change if better.get(name) == "higher" else change
            verdict = "WORSE" if worse > bound else "ok"
            worse_count += worse > bound
            print(f"  {workload:16} {name:16} {b['median']:12.6g} -> {m['median']:12.6g} ({change:+.2%}) {verdict}")
    return worse_count


def self_test(binary):
    """Same seed -> same inputs and bit-identical sim_makespan_s; a seeded
    fault drill must be caught by the output checker."""
    ok = True
    for workload in ("bnb_tree", "uc_ipm", "lp_batch_simplex", "lp_batch_pdhg"):
        runs = [run_once(binary, workload, 3, 1, 0, echo=False) for _ in range(2)]
        other, _ = run_once(binary, workload, 4, 1, 0, echo=False)
        hashes = [p["input_hash"] for p, _ in runs]
        sims = [r["metrics"]["sim_makespan_s"]["value"] for _, r in runs]
        same_inputs = hashes[0] == hashes[1] and hashes[0] != other["input_hash"]
        same_sim = sims[0] == sims[1]
        print(f"{workload}: input hash {hashes[0]} repeat={'same' if same_inputs else 'DIFFERENT'}, "
              f"sim_makespan_s {sims[0]!r} vs {sims[1]!r} {'bit-identical' if same_sim else 'DIFFER'}")
        ok &= same_inputs and same_sim
    for workload in ("bnb_tree", "uc_ipm", "lp_batch_simplex", "lp_batch_pdhg", "supervised"):
        _, result = run_once(binary, workload, 3, 1, 0, extra=["--fault-drill"], echo=False)
        caught = result["failed"] > 0 and not result["correct"]
        print(f"{workload}: fault drill failed_frac {result['failed']}/{result['attempted']} "
              f"{'caught' if caught else 'MISSED'}")
        ok &= caught
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, help="run every workload on seeds 1..N")
    parser.add_argument("--workloads", help="comma-separated subset for --repeat")
    parser.add_argument("--save", help="--repeat: write the summary here")
    parser.add_argument("--compare", help="--repeat: compare medians with a saved summary")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.repeat:
        return repeat(args, binary)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required for a single run")
    run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
