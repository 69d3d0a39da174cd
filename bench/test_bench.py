"""Tests of the benchmark itself: seeded generation, the oracle, the tracer.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gen
import oracle
import run
import spans

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a test runs in well under a second."""
    for name, value in {
        "TWEET_LINES": 3000, "SHARDED_LINES": 3000, "POLL_TOPICS": 40, "PERCENT_TOPICS": 20,
        "VOTE_REGIONS": 15, "QUADRANT_TOPICS": 40, "KERNEL_PEOPLE": 500, "KERNEL_DRAWS": 20_000,
    }.items():
        monkeypatch.setattr(run, name, value)


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _corpus_bytes(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    run.WORKLOADS[workload](gen.rng_for(workload, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_decides_the_corpus(workload, small, tmp_path):
    first = _corpus_bytes(workload, 7, tmp_path / "a")
    again = _corpus_bytes(workload, 7, tmp_path / "b")
    other = _corpus_bytes(workload, 8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first if name != "lexicon.json")


def _cli_output(args: list[str], capsys) -> str:
    from contention import cli

    assert cli.main(args) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("workload", ["tweets-stream", "tweets-users-sharded", "tables"])
def test_oracle_accepts_the_program_and_rejects_a_perturbed_row(workload, small, tmp_path, capsys):
    plan = run.WORKLOADS[workload](gen.rng_for(workload, 3), tmp_path)
    for op in plan.ops:
        text = _cli_output(op.cli_args, capsys)
        assert op.check(text) == []
        lines = text.splitlines(keepends=True)
        row = len(lines) // 2
        fields = lines[row].rstrip("\n").split(",")
        # bump the last digit of the last non-empty field
        col = max(i for i, f in enumerate(fields) if f)
        last = fields[col][-1]
        fields[col] = fields[col][:-1] + str((int(last) + 1) % 10)
        lines[row] = ",".join(fields) + "\n"
        assert op.check("".join(lines)), f"{op.name}: perturbed row was accepted"
        assert op.check("".join(lines[:-1])), f"{op.name}: missing row was accepted"


def test_oracle_checks_kernel_results(small, tmp_path):
    import kernels

    spec, answers = gen.kernel_spec(gen.rng_for("model-kernels", 5), 400, 5, 20_000)
    results = kernels.run(spec)
    assert oracle.check_kernels(json.dumps(results), spec, answers) == []
    results["general"]["raw"] += 1e-5
    results["from_counts"]["raw"] += 0.05
    problems = oracle.check_kernels(json.dumps(results), spec, answers)
    assert any(p.startswith("general.raw") for p in problems)
    assert any(p.startswith("from_counts") for p in problems)


def _current(key: tuple[str, str]) -> object:
    owner, attr = spans.resolve(*key)
    return vars(owner)[attr]


def _originals() -> dict[tuple[str, str], object]:
    return {(m, path): _current((m, path)) for m, path, _, _ in spans.TARGETS}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_restores_every_wrapped_attribute(workload, small, tmp_path):
    before = _originals()
    plan = run.WORKLOADS[workload](gen.rng_for(workload, 2), tmp_path)
    verifier = run.Verifier()
    samples, walls, wrapped = run.run_traced(plan, tmp_path, 0.0, verifier, "test")
    assert verifier.failed == 0, verifier.problems
    assert len(wrapped) == len(spans.TARGETS)
    assert all(_current(key) is original for key, original in before.items())
    assert walls["traced"] and walls["untraced"]
    busy = {
        "tweets-stream": ["ingest.ingest_tweets_s", "ingest.stream_pull_s", "ingest.csv_load_s",
                          "analytics.timeseries_self_s", "model.exclusive_calls", "cli.self_s"],
        "tweets-users-sharded": ["ingest.ingest_tweets_s", "ingest.stream_pull_s", "model.exclusive_calls"],
        "tables": ["ingest.csv_load_s", "analytics.region_contention_self_s",
                   "analytics.quadrant_points_self_s", "model.space_build_calls", "cli.records_out"],
        "model-kernels": ["model.assignment_build_s", "model.general_s", "model.sampled_s",
                          "model.sampled_counts_s", "model.draws_per_s"],
    }[workload]
    assert all(samples[name][0] > 0 for name in busy)


def test_tracer_restores_after_an_exception():
    before = _originals()
    tracer = spans.Tracer("boom")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            from contention import model

            assert _current(("contention.model", "contention_general")) is not before[
                ("contention.model", "contention_general")]
            model.StanceSpace.exclusive(["a", "b"])
            raise RuntimeError("stop")
    assert all(_current(key) is original for key, original in before.items())
    assert [s.name for s in tracer.spans] == ["model.space_build"]


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(0, "p", None, "r")
    parent.start, parent.end = 0.0, 10.0
    kids = []
    for i, (start, end) in enumerate([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.5, 12.0)]):
        kid = spans.Span(i + 1, "c", parent, "r")
        kid.start, kid.end = start, end
        kids.append(kid)
    assert spans.self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
