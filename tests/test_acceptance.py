"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, straight from the criteria.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from contention.analytics import quadrant_points, timeseries
from contention.cli import main
from contention.ingest import StanceLexicon, ingest_tweets, load_daily_totals
from contention.model import (
    StanceCounts,
    StanceSpace,
    contention_exclusive,
    contention_general,
    contention_sampled,
    max_contention,
)

from conftest import (
    brute_force_assignments_raw,
    random_overlapping_assignments,
    random_single_stance_assignments,
)

TWO = StanceSpace.exclusive(["a", "b"])


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    print(f"[criterion {num}] PASS - {description}")


def test_criterion_1_brexit_reference():
    with criterion(1, "two-option 51.9/48.1 split scores 1.00 (exact 0.998556) in <1ms"):
        counts = StanceCounts(TWO, (0, 519, 481))
        exact = Fraction(2 * 519 * 481 * 2, 1000 * 1000)  # normalized, as a rational
        assert math.isclose(float(exact), 0.998556, abs_tol=1e-12)

        contention_exclusive(counts)  # warm-up
        start = time.perf_counter()
        result = contention_exclusive(counts)
        elapsed = time.perf_counter() - start

        assert abs(result.normalized - float(exact)) <= 1e-6
        assert round(result.normalized, 4) == 0.9986
        assert round(result.normalized, 2) == 1.00
        assert elapsed < 1e-3


def test_criterion_2_gibraltar():
    with criterion(2, "95.9/4.1 split scores 0.16 (exact 0.1573 +/- 1e-4)"):
        result = contention_exclusive(StanceCounts(TWO, (0, 959, 41)))
        assert abs(result.normalized - 0.1573) <= 1e-4
        assert round(result.normalized, 2) == 0.16


# Certified national two-candidate tallies and total ballots cast, 2016.
CLINTON = 65_853_514
TRUMP = 62_984_828
BALLOTS = 136_669_276
VEP_ESTIMATE = 230_585_915  # eligible-population estimate for that cycle
NON_VOTER_SHARE = 0.411     # reported share of eligible voters who did not vote


def test_criterion_3_us_turnout_effect():
    with criterion(3, "two-candidate tallies: 0.89 among voters, 0.31 with turnout"):
        others = BALLOTS - CLINTON - TRUMP
        among_voters = contention_exclusive(
            StanceCounts(TWO, (others, CLINTON, TRUMP))
        )
        assert abs(among_voters.normalized - 0.89) <= 0.01

        # non-voter share as stated: eligible = ballots / (1 - share)
        eligible = round(BALLOTS / (1 - NON_VOTER_SHARE))
        g0 = eligible - CLINTON - TRUMP
        with_turnout = contention_exclusive(StanceCounts(TWO, (g0, CLINTON, TRUMP)))
        assert abs(with_turnout.normalized - 0.31) <= 0.01

        # the published eligible-population estimate lands on the same value
        g0_vep = VEP_ESTIMATE - CLINTON - TRUMP
        with_vep = contention_exclusive(StanceCounts(TWO, (g0_vep, CLINTON, TRUMP)))
        assert abs(with_vep.normalized - 0.31) <= 0.01


def test_criterion_4_isidewith_anchors():
    with criterion(4, "back-solved splits give parks 0.26 and background checks 0.39"):

        def split(target, scale=10**6):
            # oracle: invert raw = 2ab/(a+b+g0)^2 with g0 = 0, a+b = scale
            a = round(scale * (1 + math.sqrt(1 - target)) / 2)
            return a, scale - a

        rows = [
            ("national-parks", StanceCounts(TWO, (0, *split(0.26))), 6.0),
            ("background-check", StanceCounts(TWO, (0, *split(0.39))), 8.0),
        ]
        points = quadrant_points(rows, scale=(0, 10))
        by_topic = {p.topic: p.contention for p in points}
        assert abs(by_topic["national-parks"] - 0.26) <= 0.01
        assert abs(by_topic["background-check"] - 0.39) <= 0.01


def test_criterion_5_oracle_equivalence():
    with criterion(5, "1000 exclusive + 200 overlapping instances agree exactly, <10s"):
        start = time.perf_counter()
        rng = random.Random(20160623)
        for _ in range(1000):
            people = random_single_stance_assignments(rng, max_n=200, max_k=6)
            general = contention_general(people)
            closed = contention_exclusive(people.to_counts())
            assert general.raw == closed.raw
            assert general.normalized == closed.normalized
        for _ in range(200):
            people = random_overlapping_assignments(rng, max_n=50, max_k=6)
            fast = contention_general(people)
            naive = brute_force_assignments_raw(people)
            assert fast.raw == float(naive)
        assert time.perf_counter() - start < 10.0


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def test_criterion_6_maximality_and_properties():
    with criterion(6, "exhaustive maximality plus randomized invariants hold"):
        # exhaustive search over integer compositions, |w| <= 12, k <= 4
        for k in range(1, 5):
            space = StanceSpace.exclusive([f"s{i}" for i in range(1, k + 1)])
            bound = max_contention(k)
            for total in range(1, 13):
                best, best_comps = -1.0, []
                for comp in _compositions(total, k + 1):
                    raw = contention_exclusive(StanceCounts(space, comp)).raw
                    assert raw <= bound + 1e-15
                    if raw > best + 1e-15:
                        best, best_comps = raw, [comp]
                    elif abs(raw - best) <= 1e-15:
                        best_comps.append(comp)
                if k >= 2 and total % k == 0 and total >= k:
                    assert math.isclose(best, bound, rel_tol=1e-12)
                    assert ((0,) + (total // k,) * k) in best_comps
                    assert all(c[0] == 0 for c in best_comps)

        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(1, 6)
            space = StanceSpace.exclusive([f"s{i}" for i in range(1, k + 1)])
            values = [rng.randint(0, 200) for _ in range(k + 1)]
            if not sum(values):
                values[0] = 1
            counts = StanceCounts(space, tuple(values))
            base = contention_exclusive(counts)

            # scale invariance
            for m in (2, 3, 17):
                times_m = StanceCounts(counts.space, tuple(c * m for c in counts.counts))
                scaled = contention_exclusive(times_m)
                assert math.isclose(base.raw, scaled.raw, rel_tol=1e-12, abs_tol=0.0)

            # permutation invariance
            explicit = list(counts.explicit)
            rng.shuffle(explicit)
            permuted = StanceCounts(space, (counts.no_stance, *explicit))
            assert contention_exclusive(permuted).raw == base.raw

            # no-stance dilution
            if base.raw > 0:
                diluted = contention_exclusive(counts.with_no_stance(counts.no_stance + 25))
                assert diluted.raw < base.raw

            # single-stance collapse
            if counts.observed_k <= 1:
                assert base.raw == 0.0


def test_criterion_7_monte_carlo():
    with criterion(7, "sampled estimator within 4 sigma in >= 99/100 seeded runs"):
        people_held = [{"a"}, {"b"}, set()]
        from contention.model import AssignmentSet

        people = AssignmentSet.from_stance_ids(TWO, people_held)
        exact = contention_general(people).raw
        samples = 10**5
        sigma = math.sqrt(exact * (1 - exact) / samples)
        within = sum(
            abs(contention_sampled(people, samples, seed=s).raw - exact) <= 4 * sigma
            for s in range(100)
        )
        assert within >= 99


BREXIT_LEXICON = {
    "topic": "brexit",
    "stances": [
        {"id": "leave", "label": "Leave EU", "hashtags": ["voteleave", "leaveeu"]},
        {"id": "remain", "label": "Remain EU", "hashtags": ["voteremain", "strongerin"]},
    ],
}


def _write_three_day_fixture(tmp_path):
    def line(i, ts, user, tags):
        return json.dumps({"id": str(i), "ts": ts, "user": user, "hashtags": tags})

    lines = []
    for i in range(3):
        lines.append(line(i, "2016-06-21T08:00:00Z", f"u{i}", ["voteleave"]))
    lines.append(line(3, "2016-06-21T09:00:00Z", "u3", ["strongerin"]))
    lines.append(line(4, "2016-06-21T10:00:00Z", "u4", ["nofilter"]))
    for i in range(5, 7):
        lines.append(line(i, "2016-06-22T08:00:00Z", f"u{i}", ["leaveeu"]))
    for i in range(7, 9):
        lines.append(line(i, "2016-06-22T09:00:00Z", f"u{i}", ["voteremain"]))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps(BREXIT_LEXICON), encoding="utf-8")
    totals = tmp_path / "totals.csv"
    totals.write_text("date,total\n2016-06-21,10\n2016-06-22,8\n2016-06-23,5\n",
                      encoding="utf-8")
    return stream, lexicon, totals


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "timeseries CSV byte-identical across runs/threads; partition holds"):
        stream, lexicon, totals = _write_three_day_fixture(tmp_path)
        outputs = set()
        for run, threads in enumerate(("1", "2", "4", "1", "2", "4")):
            out = tmp_path / f"run{run}.csv"
            code = main([
                "tweets", str(stream), "--lexicon", str(lexicon),
                "--totals", str(totals), "--threads", threads, "--out", str(out),
            ])
            assert code == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

        series, _ = ingest_tweets(
            [stream], StanceLexicon.from_json(lexicon), load_daily_totals(totals)
        )
        totals_by_day = load_daily_totals(totals)
        for day in series.days:
            assert sum(day.counts.counts) == totals_by_day[day.date]


@pytest.mark.slow
def test_criterion_8_throughput_smoke(tmp_path):
    with criterion(8, "1M-line JSONL shard ingested in under 60s"):
        stream = tmp_path / "big.jsonl"
        tags = ['["voteleave"]', '["voteremain"]', '["nofilter"]', "[]"]
        with open(stream, "w", encoding="utf-8") as handle:
            for i in range(1_000_000):
                day = 1 + i % 28
                handle.write(
                    f'{{"id":"{i}","ts":"2016-06-{day:02d}T0{i % 10}:00:00Z",'
                    f'"user":"u{i % 50000}","hashtags":{tags[i % 4]}}}\n'
                )
        lexicon_path = tmp_path / "lexicon.json"
        lexicon_path.write_text(json.dumps(BREXIT_LEXICON), encoding="utf-8")
        lexicon = StanceLexicon.from_json(lexicon_path)

        start = time.perf_counter()
        series, stats = ingest_tweets([stream], lexicon)
        points = timeseries(series)
        elapsed = time.perf_counter() - start

        assert stats.parsed == 1_000_000
        assert len(points) == 28
        assert sum(stats.tagged.values()) == 500_000
        assert elapsed < 60.0
