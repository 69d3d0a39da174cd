"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --runs 10 [--sets 2] [--traced] [--workload NAME ...]
                            [--first-seed 1] [--out FILE]

For every workload it runs ``bench/run.py`` once per seed with the
``run_seconds`` of ``BENCHMARK.json``, then prints for each end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound.  With
``--sets 2`` it does all of that twice over the same seeds, one whole set
after the other, and prints by how much each median of the second set is
worse than the first.  ``--traced`` first makes one ``--trace 1`` run per
workload and prints its per-layer metrics, each time as a share of the
untraced pass, and the tracing overhead.  ``--out`` writes the same figures
with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    """One benchmark run: its result object, its stdout lines and its duration."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result, lines, time.perf_counter() - start


def _comment(lines: list[str], tag: str) -> dict:
    return json.loads(next(line for line in lines if line.startswith(tag)).removeprefix(tag))


def traced(workload: str, seed: int, seconds: int) -> dict:
    result, lines, _ = _run(workload, seed, seconds, 1)
    trace = _comment(lines, "# trace ")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    shares = {name: value / trace["untraced_wall_s"] for name, value in metrics.items()
              if result["metrics"][name]["unit"] == "s" and value > 0}
    print(f"{workload}: traced, untraced pass {trace['untraced_wall_s']:.4g} s, "
          f"overhead {trace['overhead_s']:+.4g} s over {trace['passes']} passes")
    for name, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {name:36s} {metrics[name]:10.4g} s  {100 * share:5.1f}% of the pass")
    return {"seed": seed, "metrics": metrics, "share_of_untraced_pass": shares, **trace}


def one_set(workload: str, seeds: list[int], seconds: int, bounds: dict[str, float],
            report: dict) -> dict:
    values: dict[str, list[float]] = {name: [] for name in bounds}
    durations = []
    for seed in seeds:
        result, lines, duration = _run(workload, seed, seconds, 0)
        durations.append(duration)
        report["environment"] = _comment(lines, "# env ")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    rows = {}
    print(f"{workload}: {len(seeds)} runs, {statistics.median(durations):.1f} s each (median)")
    for name, bound in bounds.items():
        q1, _, q3 = statistics.quantiles(values[name], n=4)
        median = statistics.median(values[name])
        spread = (q3 - q1) / median
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                      "values": values[name]}
        print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}")
    return {"run_duration_s": durations, "metrics": rows}


def agreement(first: dict, second: dict, metrics: list[dict]) -> dict:
    """By how much each median of ``second`` is worse than that of ``first``."""
    out = {}
    for workload in first:
        rows = {}
        for metric in metrics:
            a = first[workload]["metrics"][metric["name"]]["median"]
            b = second[workload]["metrics"][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            rows[metric["name"]] = {"first": a, "second": b, "worse_by": worse,
                                    "bound": metric["bound"], "ok": worse <= metric["bound"]}
            print(f"  {workload:22s} {metric['name']:14s} second median worse by {worse:+.3f}  "
                  f"bound {metric['bound']}  {'ok' if worse <= metric['bound'] else 'WORSE'}")
        out[workload] = rows
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report: dict[str, object] = {"run_seconds": seconds, "runs": args.runs, "seeds": seeds}
    if args.traced:
        report["traced"] = {w: traced(w, seeds[0], seconds) for w in workloads}
    sets = []
    for number in range(args.sets):
        print(f"set {number + 1} of {args.sets}")
        sets.append({w: one_set(w, seeds, seconds, bounds, report) for w in workloads})
    report["sets"] = sets
    if len(sets) > 1:
        print("agreement of the last set with the first")
        report["agreement"] = agreement(sets[0], sets[-1], spec["end_to_end"])
    if args.out:
        for key in ("workload", "seed", "trace"):
            report.get("environment", {}).pop(key, None)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
