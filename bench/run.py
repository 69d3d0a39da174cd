"""Benchmark for the contention package: seeded workloads, end-to-end and
per-layer metrics, outputs checked against an independent oracle.

Usage (from the repository root):

    python3 bench/run.py --workload tweets-stream --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1

Workloads: tweets-stream, tweets-users-sharded, tables, model-kernels, or all
of them in turn.

Load model: a closed loop with one client.  The generator runs in this
process; each command of a pass starts only after the previous one exited.
``--trace 0`` spawns ``python -m contention`` (or ``bench/kernels.py``) per
command and reports the end-to-end metrics; ``--trace 1`` runs the same
commands in-process, alternating untraced and traced passes, and reports
the per-layer metrics plus the tracing overhead.  Every pass is checked
against the generator's expected answers.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Input sizes.  They keep each workload's shape at between two fifths and
# a seventeenth of the sizes a full-scale run would use (1e6 tweets; 1e5
# poll and quadrant topics; 1e4 regions; 5e5 people and 1e7 draws), so that
# one pass takes a few seconds and a run holds several passes.
TWEET_LINES = 200_000
SHARDED_LINES = 200_000
SHARDS = 4
POLL_TOPICS = 6_000
POLL_K_MAX = 40
PERCENT_TOPICS = 2_000
VOTE_REGIONS = 1_000
VOTE_OPTIONS = 30
QUADRANT_TOPICS = 6_000
KERNEL_PEOPLE = 200_000
KERNEL_K = 8
KERNEL_DRAWS = 4_000_000

SETUP_REPS = 3
SETUP_PER_PASS = 2
COMMAND_TIMEOUT_S = 120.0
SETUP_CODE = "import contention.cli as c; c.build_parser()"

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.records_out": "count",
    "ingest.ingest_tweets_s": "s",
    "ingest.stream_pull_s": "s",
    "ingest.lines_per_s": "lines/s",
    "ingest.cpu_over_wall": "ratio",
    "ingest.parsed_ratio": "ratio",
    "ingest.tagged_ratio": "ratio",
    "ingest.csv_load_s": "s",
    "ingest.csv_rows_per_s": "rows/s",
    "ingest.lexicon_load_s": "s",
    "analytics.timeseries_self_s": "s",
    "analytics.region_contention_self_s": "s",
    "analytics.quadrant_points_self_s": "s",
    "model.space_build_calls": "count",
    "model.space_build_s": "s",
    "model.counts_build_s": "s",
    "model.exclusive_calls": "count",
    "model.exclusive_s": "s",
    "model.exclusive_us_per_call": "us",
    "model.assignment_build_s": "s",
    "model.general_s": "s",
    "model.sampled_s": "s",
    "model.sampled_counts_s": "s",
    "model.draws_per_s": "draws/s",
}


@dataclass
class Op:
    """One command of a pass: CLI arguments, or a model-kernels spec file."""

    name: str
    check: Callable[[str], list[str]]
    cli_args: list[str] | None = None
    spec_path: Path | None = None


@dataclass
class Plan:
    ops: list[Op]
    items: int
    properties: dict[str, dict[str, float]] = field(default_factory=dict)


# -- workloads ----------------------------------------------------------------------

def _csv_op(name: str, args: list[str], expected: gen.Expected) -> Op:
    return Op(name, lambda text: oracle.check_csv(text, expected), cli_args=args)


def plan_tweets_stream(rng, work: Path) -> Plan:
    shards, truth, props = gen.write_tweets(rng, work, TWEET_LINES, 1)
    lexicon, totals_path = work / "lexicon.json", work / "totals.csv"
    gen.write_lexicon(lexicon)
    totals = gen.write_totals(rng, totals_path, truth)
    expected = gen.expected_tweets(truth, totals, by_user=False)
    args = ["tweets", *map(str, shards), "--lexicon", str(lexicon),
            "--totals", str(totals_path), "--threads", "1"]
    return Plan([_csv_op("tweets", args, expected)], TWEET_LINES, {"tweets": props})


def plan_tweets_users_sharded(rng, work: Path) -> Plan:
    shards, truth, props = gen.write_tweets(rng, work, SHARDED_LINES, SHARDS)
    lexicon = work / "lexicon.json"
    gen.write_lexicon(lexicon)
    expected = gen.expected_tweets(truth, None, by_user=True)
    args = ["tweets", *map(str, shards), "--lexicon", str(lexicon), "--by-user", "--threads", "2"]
    return Plan([_csv_op("tweets", args, expected)], SHARDED_LINES, {"tweets": props})


def plan_tables(rng, work: Path) -> Plan:
    poll, percent, votes, quad = (work / f for f in ("poll.csv", "percent.csv", "votes.csv", "quadrant.csv"))
    poll_rows, poll_exp = gen.write_poll_counts(rng, poll, POLL_TOPICS, POLL_K_MAX)
    pct_rows, pct_exp = gen.write_poll_percent(rng, percent, PERCENT_TOPICS)
    vote_rows, vote_exp = gen.write_votes(rng, votes, VOTE_REGIONS, VOTE_OPTIONS)
    quad_rows, quad_exp = gen.write_quadrant(rng, quad, QUADRANT_TOPICS)
    ops = [
        _csv_op("poll", ["poll", str(poll)], poll_exp),
        _csv_op("poll-percent", ["poll", str(percent)], pct_exp),
        _csv_op("votes", ["votes", str(votes), "--turnout", "eligible"], vote_exp),
        _csv_op("quadrant", ["quadrant", str(quad), "--importance-scale", "0", "10"], quad_exp),
    ]
    props = {
        "poll": {"rows": poll_rows, "topics": POLL_TOPICS, "k_max": POLL_K_MAX},
        "poll-percent": {"rows": pct_rows, "topics": PERCENT_TOPICS},
        "votes": {"rows": vote_rows, "regions": VOTE_REGIONS, "options": VOTE_OPTIONS},
        "quadrant": {"rows": quad_rows, "topics": QUADRANT_TOPICS},
    }
    return Plan(ops, poll_rows + pct_rows + vote_rows + quad_rows, props)


def plan_model_kernels(rng, work: Path) -> Plan:
    spec, answers = gen.kernel_spec(rng, KERNEL_PEOPLE, KERNEL_K, KERNEL_DRAWS)
    spec_path = work / "kernels.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    op = Op("kernels", lambda text: oracle.check_kernels(text, spec, answers), spec_path=spec_path)
    props = {"people": KERNEL_PEOPLE, "k": KERNEL_K, "conflict_pairs": len(spec["conflicts"]),
             "draws": KERNEL_DRAWS,
             "distinct_signatures": len({tuple(h) for h in spec["held"]})}
    # items: people plus the pairs each of the two samplers draws
    return Plan([op], KERNEL_PEOPLE + 2 * KERNEL_DRAWS, {"kernels": props})


WORKLOADS = {
    "tweets-stream": plan_tweets_stream,
    "tweets-users-sharded": plan_tweets_users_sharded,
    "tables": plan_tables,
    "model-kernels": plan_model_kernels,
}


# -- end-to-end passes (child processes) ---------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Client of ``launcher.py``, which starts and measures every child."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], out: Path, err: Path) -> dict:
        """Run one child; its exit ``code``, ``wall_s``, user+sys ``cpu_s``
        and peak ``rss_kib``."""
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _child_argv(op: Op) -> list[str]:
    if op.spec_path is not None:
        return [sys.executable, str(BENCH / "kernels.py"), str(op.spec_path)]
    return [sys.executable, "-m", "contention", *op.cli_args]


class Verifier:
    """Checks outputs against the oracle; an output byte-identical to one
    already checked for the same command is not checked again."""

    def __init__(self) -> None:
        self.verified: dict[str, set[bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, code: int, stdout: bytes, stderr: str) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        digest = hashlib.sha256(stdout).digest()
        if not problems and digest not in self.verified.get(op.name, set()):
            problems = op.check(stdout.decode("utf-8", "replace"))
            if not problems:
                self.verified.setdefault(op.name, set()).add(digest)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.name}: {p}" for p in problems[:5])


def e2e_pass(plan: Plan, work: Path, verifier: Verifier, launcher: Launcher) -> dict[str, float]:
    """One pass of child processes; wall is the sum of their spawn-to-exit times."""
    runs = []
    for op in plan.ops:
        out, err = work / f"{op.name}.out", work / f"{op.name}.err"
        runs.append((op, launcher.run(_child_argv(op), out, err), out, err))
    for op, child, out, err in runs:
        verifier.record(op, child["code"], out.read_bytes(), err.read_text("utf-8", "replace"))
    wall = sum(child["wall_s"] for _, child, _, _ in runs)
    return {
        "wall_s": wall,
        "items_per_s": plan.items / wall,
        "cpu_s": sum(child["cpu_s"] for _, child, _, _ in runs),
        "peak_rss_mib": max(child["rss_kib"] for _, child, _, _ in runs) / 1024,
    }


def measure_setup(work: Path, verifier: Verifier, launcher: Launcher) -> float:
    """Interpreter start + ``import contention.cli`` + ``build_parser()``."""
    out, err = work / "setup.out", work / "setup.err"
    child = launcher.run([sys.executable, "-c", SETUP_CODE], out, err)
    check_op = Op("setup", lambda text: [] if text == "" else ["setup printed output"])
    verifier.record(check_op, child["code"], out.read_bytes(), err.read_text("utf-8", "replace"))
    return child["wall_s"]


def run_end_to_end(plan: Plan, work: Path, seconds: float, verifier: Verifier,
                   launcher: Launcher) -> dict[str, list[float]]:
    """Passes until ``seconds`` have gone by.  Set-up is timed a few times
    first (which also compiles the package's bytecode, so the first pass
    needs no warm-up) and a few times after every pass, so that its samples
    are spread over the run like the passes are."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["setup_s"] = [measure_setup(work, verifier, launcher) for _ in range(SETUP_REPS)]
    start = time.perf_counter()
    while True:
        for name, value in e2e_pass(plan, work, verifier, launcher).items():
            samples[name].append(value)
        samples["setup_s"] += [measure_setup(work, verifier, launcher) for _ in range(SETUP_PER_PASS)]
        if time.perf_counter() - start >= seconds:
            return samples


# -- traced passes (in-process) -----------------------------------------------------

def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import contention.cli  # noqa: F401  (loads every layer)
    import kernels
    return kernels


def in_process(op: Op, out_path: Path, kernels, specs: dict) -> tuple[int, str]:
    """Run one command in this process; (exit code, captured stderr)."""
    from contention import cli

    err = io.StringIO()
    with open(out_path, "w", encoding="utf-8", newline="") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.spec_path is not None:
                json.dump(kernels.run(specs[op.name]), out)
                out.write("\n")
                code = 0
            else:
                code = cli.main(op.cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
            print(f"Traceback (in-process): {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, err.getvalue()


def traced_pass(plan: Plan, work: Path, verifier: Verifier, kernels, specs, tracer) -> tuple[float, int]:
    """One in-process pass, traced when ``tracer`` is given; (wall s, output rows)."""
    gc.collect()
    results = []
    with (tracer.installed() if tracer else contextlib.nullcontext()):
        start = time.perf_counter()
        for op in plan.ops:
            out = work / f"{op.name}.out"
            results.append((op, out, *in_process(op, out, kernels, specs)))
        wall = time.perf_counter() - start
    rows = 0
    for op, out, code, err in results:
        data = out.read_bytes()
        verifier.record(op, code, data, err)
        if op.cli_args is not None:
            rows += max(data.count(b"\n") - 1, 0)
    return wall, rows


def _data_rows(path) -> int:
    with open(path, "rb") as handle:
        return max(sum(1 for _ in handle) - 1, 0)


def layer_metrics(recorded: list[spans.Span], records_out: int) -> dict[str, float]:
    by_name: dict[str, list[spans.Span]] = {}
    for span in recorded:
        by_name.setdefault(span.name, []).append(span)
    kids = spans.children_of(recorded)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def own(name):
        return sum(spans.self_time(s, kids.get(s.id, [])) for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    stats = [s.info for s in named("ingest.ingest_tweets")]
    lines = sum(st.lines for st in stats)
    parsed = sum(st.parsed for st in stats)
    tagged = sum(sum(st.tagged.values()) for st in stats)
    ingest_s = total("ingest.ingest_tweets")
    csv_s = total("ingest.csv_load")
    csv_rows = sum(_data_rows(s.info) for s in named("ingest.csv_load"))
    exclusive_calls = len(named("model.exclusive"))
    exclusive_s = total("model.exclusive")
    sampling_s = total("model.sampled") + total("model.sampled_counts")
    draws = sum(s.info for s in named("model.sampled") + named("model.sampled_counts"))
    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.records_out": records_out,
        "ingest.ingest_tweets_s": ingest_s,
        "ingest.stream_pull_s": sum(s.busy for s in named("ingest.stream_pull")),
        "ingest.lines_per_s": ratio(lines, ingest_s),
        "ingest.cpu_over_wall": ratio(sum(s.cpu for s in named("ingest.ingest_tweets")), ingest_s),
        "ingest.parsed_ratio": ratio(parsed, lines),
        "ingest.tagged_ratio": ratio(tagged, parsed),
        "ingest.csv_load_s": csv_s,
        "ingest.csv_rows_per_s": ratio(csv_rows, csv_s),
        "ingest.lexicon_load_s": total("ingest.lexicon_load"),
        "analytics.timeseries_self_s": own("analytics.timeseries"),
        "analytics.region_contention_self_s": own("analytics.region_contention"),
        "analytics.quadrant_points_self_s": own("analytics.quadrant_points"),
        "model.space_build_calls": len(named("model.space_build")),
        "model.space_build_s": total("model.space_build"),
        "model.counts_build_s": total("model.counts_build"),
        "model.exclusive_calls": exclusive_calls,
        "model.exclusive_s": exclusive_s,
        "model.exclusive_us_per_call": 1e6 * ratio(exclusive_s, exclusive_calls),
        "model.assignment_build_s": total("model.assignment_build"),
        "model.general_s": total("model.general"),
        "model.sampled_s": total("model.sampled"),
        "model.sampled_counts_s": total("model.sampled_counts"),
        "model.draws_per_s": ratio(draws, sampling_s),
    }


def run_traced(plan: Plan, work: Path, seconds: float, verifier: Verifier, run_id: str):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns per-metric samples, the untraced and traced pass walls, and the
    attributes the tracer wrapped."""
    kernels = _import_program()
    specs = {op.name: json.loads(op.spec_path.read_text(encoding="utf-8"))
             for op in plan.ops if op.spec_path is not None}
    traced_pass(plan, work, verifier, kernels, specs, None)  # warm-up
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    start = time.perf_counter()
    while True:
        wall, _ = traced_pass(plan, work, verifier, kernels, specs, None)
        walls["untraced"].append(wall)
        tracer = spans.Tracer(f"{run_id}-{len(walls['traced'])}")
        wall, rows = traced_pass(plan, work, verifier, kernels, specs, tracer)
        walls["traced"].append(wall)
        for name, value in layer_metrics(tracer.spans, rows).items():
            samples[name].append(value)
        if time.perf_counter() - start >= seconds:
            return samples, walls, tracer.wrapped


# -- reporting ----------------------------------------------------------------------

def _git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def environment(workload: str, args) -> dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "none"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "orjson_importable": importlib.util.find_spec("orjson") is not None,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _print_metrics(samples: dict[str, list[float]], units: dict[str, str]) -> None:
    for name, unit in units.items():
        q1, med, q3 = _quartiles(samples[name])
        print(f"{name:36s} {med:14.6g} {unit:8s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[name])}")


def run_workload(workload: str, args, launcher: Launcher | None) -> dict:
    """Generate, measure and check one workload; prints its report and
    returns the result object."""
    print("# env " + json.dumps(environment(workload, args), sort_keys=True))
    work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        plan = WORKLOADS[workload](gen.rng_for(workload, args.seed), work)
        print(f"# generated {plan.items} items in {time.perf_counter() - t0:.2f} s")
        for part, props in plan.properties.items():
            print(f"# corpus {part} " + json.dumps(props, sort_keys=True))
        verifier = Verifier()
        if launcher is None:
            samples, walls, wrapped = run_traced(plan, work, args.seconds, verifier, f"{workload}-{args.seed}")
            print(f"# traced {len(wrapped)} attributes: {' '.join(wrapped)}")
            _print_metrics(samples, PER_LAYER)
            # paired with the untraced pass just before it, so that slow
            # drifts of the machine's speed cancel out
            overhead = statistics.median(t - u for t, u in zip(walls["traced"], walls["untraced"]))
            untraced = statistics.median(walls["untraced"])
            print("# trace " + json.dumps({"overhead_s": overhead, "untraced_wall_s": untraced,
                                           "passes": len(walls["traced"])}))
            print(f"{'trace.overhead_s':36s} {overhead:14.6g} s        "
                  f"median of {len(walls['traced'])} traced-minus-untraced pass pairs; "
                  f"{100 * overhead / untraced:+.1f}% of the untraced {untraced:.6g} s")
            units = PER_LAYER
        else:
            samples = run_end_to_end(plan, work, args.seconds, verifier, launcher)
            _print_metrics(samples, END_TO_END)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'failed_ratio':36s} {verifier.failed / verifier.attempted:14.6g} share    "
          f"{verifier.failed} of {verifier.attempted} operations")
    for problem in verifier.problems[:20]:
        print(f"# FAILED {problem}")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {
            name: {"value": float(statistics.median(samples[name])), "unit": unit}
            for name, unit in units.items()
        },
    }


def _run_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contention" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'contention'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    launcher = None if args.trace else Launcher()
    try:
        results = {w: run_workload(w, args, launcher) for w in workloads}
    finally:
        if launcher:
            launcher.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        # every workload's result, under one object with the summed counts
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
