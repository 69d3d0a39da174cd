"""The table commands (poll, votes, quadrant) and ``tweets`` through
``main()``: their output checked against the benchmark's independent
oracle, and mutated table inputs that must end in a clean exit."""

import contextlib
import gc
import io
import json
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.cli import main

# the benchmark's generator and oracle never import contention, so their
# answers are independent of the code under test
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402
import oracle  # noqa: E402

EX_OK, EX_DATA, EX_USAGE = 0, 2, 64


def run_main(argv):
    """Exit code, stdout and stderr of one in-process ``main()`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- exit 0 must also be right ---------------------------------------------------

DIFFERENTIAL = {
    "poll": (lambda rng, path: gen.write_poll_counts(rng, path, 30, 8), []),
    "poll-percent": (lambda rng, path: gen.write_poll_percent(rng, path, 30), []),
    "votes": (lambda rng, path: gen.write_votes(rng, path, 20, 4), ["--turnout", "eligible"]),
    "quadrant": (lambda rng, path: gen.write_quadrant(rng, path, 30),
                 ["--importance-scale", "0", "10"]),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_output_matches_bench_oracle(tmp_path, case, seed):
    write, flags = DIFFERENTIAL[case]
    path = tmp_path / f"{case}.csv"
    _, expected = write(gen.rng_for(case, seed), path)
    code, out, err = run_main([case.split("-")[0], str(path), *flags])
    assert (code, err) == (EX_OK, "")
    assert oracle.check_csv(out, expected) == []


@pytest.mark.parametrize("totals", [False, True], ids=["no-totals", "totals"])
@pytest.mark.parametrize("by_user", [False, True], ids=["tweets", "by-user"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_tweets_output_matches_bench_oracle(tmp_path, seed, shards, by_user, totals):
    rng = gen.rng_for("tweets", seed)
    paths, truth, _ = gen.write_tweets(rng, tmp_path, 3000, shards)
    lexicon = tmp_path / "lexicon.json"
    gen.write_lexicon(lexicon)
    argv = ["tweets", *map(str, paths), "--lexicon", str(lexicon)]
    day_totals = None
    if totals:
        day_totals = gen.write_totals(rng, tmp_path / "totals.csv", truth)
        argv += ["--totals", str(tmp_path / "totals.csv")]
    if by_user:
        argv.append("--by-user")
    code, out, _ = run_main(argv)
    assert code == EX_OK
    assert oracle.check_csv(out, gen.expected_tweets(truth, day_totals, by_user)) == []


def test_poll_peak_memory_per_row(tmp_path):
    """``poll`` holds one StanceCounts per finished topic while it loads,
    and drops each topic once scored, so its traced peak grows by at most
    20 bytes per data row from 1000 to 4000 generated topics.  That is
    about 16 on Python 3.11 and 3.10; it was about 24 when every topic was
    held until the last was scored, and about 70 when every topic's rows
    stayed in dicts until the file ended."""
    out = str(tmp_path / "out.csv")

    def peak(topics):
        path = tmp_path / f"poll{topics}.csv"
        rows, _ = gen.write_poll_counts(gen.rng_for("tables", 1), path, topics, 40)
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["poll", str(path), "--out", out]) == EX_OK
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # imports and first-use caches are not per row
    (rows_1k, peak_1k), (rows_4k, peak_4k) = peak(1000), peak(4000)
    assert (peak_4k - peak_1k) / (rows_4k - rows_1k) <= 20


def test_quadrant_peak_memory_per_row(tmp_path):
    """``quadrant`` shares equal counts within its load and drops each topic
    once scored, so its traced peak grows by at most 65 bytes per data row
    from 1000 to 4000 generated topics.  That is about 55 on Python 3.11
    and 60 on 3.10; it was about 107 when every count was its own int and
    every topic was held until the last was scored, 69 with the release
    alone and 77 with the shared counts alone."""
    out = str(tmp_path / "out.csv")

    def peak(topics):
        path = tmp_path / f"quadrant{topics}.csv"
        rows, _ = gen.write_quadrant(gen.rng_for("tables", 1), path, topics)
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["quadrant", str(path), "--importance-scale", "0", "10",
                         "--out", out]) == EX_OK
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # imports and first-use caches are not per row
    (rows_1k, peak_1k), (rows_4k, peak_4k) = peak(1000), peak(4000)
    assert (peak_4k - peak_1k) / (rows_4k - rows_1k) <= 65


def test_votes_peak_memory_per_row_in_shuffled_orders(tmp_path):
    """Each region of a vote file that lists its options in its own order
    gets a space of its own while the file loads; a space holds only its
    ids and its matrix, so the traced peak of ``votes --turnout eligible``
    grows by at most 75 bytes per data row from 250 to 1000 regions of 32
    shuffled options.  That is about 52 on Python 3.11 and 57 on 3.10, 43
    and 45 when every region lists its options in one order, and it was
    about 138 and 207 when a space held one object per stance."""
    out = str(tmp_path / "out.csv")
    rng = random.Random(1)

    def peak(regions):
        path = tmp_path / f"votes{regions}.csv"
        lines = ["region,option,count"]
        for r in range(regions):
            options = [f"o{i:02d}" for i in range(1, 33)]
            rng.shuffle(options)
            lines += [f"r{r:05d},{option},{rng.randint(0, 5000)}" for option in options]
            lines.append(f"r{r:05d},__eligible__,200000")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["votes", str(path), "--turnout", "eligible", "--out", out]) == EX_OK
            return len(lines) - 1, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # imports and first-use caches are not per row
    (rows_small, peak_small), (rows_large, peak_large) = peak(250), peak(1000)
    assert (peak_large - peak_small) / (rows_large - rows_small) <= 75


def test_quadrant_last_topic_out_of_range_writes_nothing(tmp_path):
    """Many good topics are scored and released before the last one fails:
    exit 2 with one JSON error record, and nothing on stdout."""
    path = tmp_path / "quadrant.csv"
    gen.write_quadrant(gen.rng_for("quadrant", 1), path, 500)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("last,a,5,10.5\nlast,b,3,10.5\n")
    code, out, err = run_main(["quadrant", str(path), "--importance-scale", "0", "10"])
    assert (code, out) == (EX_DATA, "")
    [line] = err.splitlines()
    assert json.loads(line) == {"error": "ImportanceOutOfDeclaredRange",
                                "message": "topic 'last': importance 10.5 outside [0.0, 10.0]"}


# -- mutated inputs ----------------------------------------------------------------

FIXTURES = {
    "poll": [
        (b"topic,stance,count\nt1,a,5\nt1,b,3\nt1,__none__,2\nt2,x,1\nt2,y,4\n", []),
        (b"topic,stance,percent,total\nt1,a,52.5,200\nt1,b,47.5,200\nt2,x,1e1,30\n"
         b"t2,y,9/2,30\nt2,__none__,85.5,30\n", []),
    ],
    "votes": [
        (b"region,option,count\nr1,leave,10\nr1,remain,7\nr1,__rejected__,1\n"
         b"r1,__eligible__,30\nr2,leave,3\nr2,remain,9\nr2,__none__,2\nr2,__eligible__,15\n",
         ["--turnout", turnout])
        for turnout in ("ballots", "eligible")
    ],
    "quadrant": [
        (b"topic,stance,count,importance\nt1,a,5,7\nt1,b,3,7\nt1,__none__,1,7\n"
         b"t2,x,1,2.5\nt2,y,4,2.5\n", ["--importance-scale", "0", "10"]),
    ],
}
NUMBER = re.compile(rb"\d+(?:[./]\d+)?(?:e\d+)?")
# what a number is swapped for: text, signs, forms int() or float() reject or
# read, and a count with as many digits as int() reads (summed with any other
# count, more digits than str() writes)
SWAPS = [b"", b"x", b"-1", b" 7 ", b"1.5", b"1e3", b"nan", b"inf", b"1/0", b"\xd9\xa3",
         b"1_000", b"\"4\"", b"9" * 4300]
BOM = b"\xef\xbb\xbf"


def _cells(data, edit):
    """Apply ``edit`` to the comma-split cells of every line."""
    return b"\n".join(b",".join(edit(line.split(b","))) for line in data.split(b"\n"))


def _mutate(data, op, a, b):
    """One mutation of a fixture; ``a`` and ``b`` pick where and what."""
    if op == "truncate":
        return data[:a % (len(data) + 1)]
    if op == "flip":
        if not data:
            return data
        i = a % len(data)
        return data[:i] + bytes([data[i] ^ (b % 255 + 1)]) + data[i + 1:]
    if op in ("swap", "huge"):
        spots = list(NUMBER.finditer(data))
        if not spots:
            return data
        spot = spots[a % len(spots)]
        text = SWAPS[b % len(SWAPS)] if op == "swap" else b"9" * 140_000
        return data[:spot.start()] + text + data[spot.end():]
    if op == "drop-column":
        return _cells(data, lambda cells: cells[:a % 5] + cells[a % 5 + 1:])
    if op == "repeat-column":
        return _cells(data, lambda cells: cells[:a % 5 + 1] + cells[a % 5:])
    if op == "bom":
        return BOM + data
    if op == "crlf":
        return data.replace(b"\n", b"\r\n")
    raise AssertionError(op)


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "flip", "swap", "huge", "drop-column", "repeat-column",
                         "bom", "crlf"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1, max_size=3,
)


def check_mutated(tmp_path_factory, command, fixture, mutations):
    data, flags = fixture
    for op, a, b in mutations:
        data = _mutate(data, op, a, b)
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    path.write_bytes(data)
    code, _, err = run_main([command, str(path), *flags])
    assert code in (EX_OK, EX_DATA, EX_USAGE)
    assert "Traceback" not in err
    if code == EX_DATA:
        [line] = err.splitlines()
        record = json.loads(line)
        assert sorted(record) == ["error", "message"]


@settings(max_examples=150, deadline=None)
@given(fixture=st.sampled_from(FIXTURES["poll"]), mutations=MUTATIONS)
def test_mutated_poll_input_exits_cleanly(tmp_path_factory, fixture, mutations):
    check_mutated(tmp_path_factory, "poll", fixture, mutations)


@settings(max_examples=150, deadline=None)
@given(fixture=st.sampled_from(FIXTURES["votes"]), mutations=MUTATIONS)
def test_mutated_votes_input_exits_cleanly(tmp_path_factory, fixture, mutations):
    check_mutated(tmp_path_factory, "votes", fixture, mutations)


@settings(max_examples=150, deadline=None)
@given(fixture=st.sampled_from(FIXTURES["quadrant"]), mutations=MUTATIONS)
def test_mutated_quadrant_input_exits_cleanly(tmp_path_factory, fixture, mutations):
    check_mutated(tmp_path_factory, "quadrant", fixture, mutations)
