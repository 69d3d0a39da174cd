"""CLI: subcommands, exit codes, determinism, config precedence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contention
from contention.cli import main

EX_DATA = 2
EX_USAGE = 64


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def poll_csv(tmp_path):
    return write(tmp_path, "poll.csv",
                 "topic,stance,count\n"
                 "evolution,evolved,98\n"
                 "evolution,present_form,2\n"
                 "evolution,__none__,0\n")


@pytest.fixture
def brexit_votes_csv(tmp_path):
    return write(tmp_path, "brexit.csv",
                 "region,option,count\n"
                 "gibraltar,leave,823\n"
                 "gibraltar,remain,19322\n"
                 "dover,leave,40410\n"
                 "dover,remain,24500\n")


@pytest.fixture
def us_votes_csv(tmp_path):
    return write(tmp_path, "us.csv",
                 "region,option,count\n"
                 "us,clinton,65853514\n"
                 "us,trump,62984828\n"
                 "us,__none__,7830934\n"
                 "us,__eligible__,230585915\n")


BREXIT_LEXICON = {
    "topic": "brexit",
    "stances": [
        {"id": "leave", "label": "Leave EU", "hashtags": ["voteleave", "leaveeu"]},
        {"id": "remain", "label": "Remain EU", "hashtags": ["voteremain", "strongerin"]},
    ],
}


def tweet_line(i, ts, user, tags):
    return json.dumps({"id": str(i), "ts": ts, "user": user, "hashtags": tags})


@pytest.fixture
def tweet_fixture(tmp_path):
    """Three days with hand-computed contention values."""
    lines = []
    n = 0
    # day 1: 3 leave, 1 remain, 1 untagged; total 10
    for _ in range(3):
        lines.append(tweet_line(n := n + 1, "2016-06-21T08:00:00Z", f"u{n}", ["voteleave"]))
    lines.append(tweet_line(n := n + 1, "2016-06-21T09:00:00Z", f"u{n}", ["strongerin"]))
    lines.append(tweet_line(n := n + 1, "2016-06-21T10:00:00Z", f"u{n}", ["catsofsocialmedia"]))
    # day 2: 2 leave, 2 remain; total 8
    for _ in range(2):
        lines.append(tweet_line(n := n + 1, "2016-06-22T08:00:00Z", f"u{n}", ["leaveeu"]))
    for _ in range(2):
        lines.append(tweet_line(n := n + 1, "2016-06-22T09:00:00Z", f"u{n}", ["voteremain"]))
    # day 3: nothing tagged; total 5 comes from the totals file only
    stream = write(tmp_path, "stream.jsonl", "\n".join(lines) + "\n")
    lexicon = write(tmp_path, "lexicon.json", json.dumps(BREXIT_LEXICON))
    totals = write(tmp_path, "totals.csv",
                   "date,total\n2016-06-21,10\n2016-06-22,8\n2016-06-23,5\n")
    return stream, lexicon, totals


EXPECTED_TIMESERIES = (
    "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
    "2016-06-21,10,4,2,0.060000,0.120000,0.375000,0.750000\n"
    "2016-06-22,8,4,2,0.125000,0.250000,0.500000,1.000000\n"
    "2016-06-23,5,0,2,0.000000,0.000000,,\n"
)


class TestPollCommand:
    def test_table_at_display_precision(self, poll_csv, capsys):
        code, out, _ = run_cli(["poll", poll_csv, "--precision", "2"], capsys)
        assert code == 0
        assert out == "topic,n,k,raw,normalized\nevolution,100,2,0.04,0.08\n"

    def test_full_precision_default(self, poll_csv, capsys):
        code, out, _ = run_cli(["poll", poll_csv], capsys)
        assert code == 0
        assert "0.078400" in out

    def test_json_mode(self, poll_csv, capsys):
        code, out, _ = run_cli(["poll", poll_csv, "--json"], capsys)
        assert code == 0
        record = json.loads(out.strip())
        assert record["topic"] == "evolution"
        assert record["normalized"] == 0.0784

    def test_out_file(self, poll_csv, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(["poll", poll_csv, "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert "evolution" in target.read_text()

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        empty = write(tmp_path, "empty.csv", "topic,stance,count\n")
        code, _, err = run_cli(["poll", empty], capsys)
        assert code == EX_DATA
        record = json.loads(err.strip())
        assert record["error"] == "EmptyInput"

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(["poll", "/nonexistent.csv"], capsys)
        assert code == EX_DATA

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"topic,stance,count\nt,caf\xff,1\n")
        code, _, err = run_cli(["poll", str(path)], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip())["error"] == "UnicodeDecodeError"

    def test_csv_field_over_the_size_limit_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "huge.csv", "topic,stance,count\nt,a," + "x" * 200_000 + "\n")
        code, out, err = run_cli(["poll", path], capsys)
        assert code == EX_DATA and out == ""
        record = json.loads(err.strip())
        assert record["error"] == "MalformedRow"
        assert record["message"].startswith(f"{path}, line 2: field larger than field limit")

    def test_repeated_count_column_is_data_error(self, tmp_path, capsys):
        # read as csv.DictReader reads it, the second 'count' column was scored (n=8)
        path = write(tmp_path, "poll.csv", "topic,stance,count,count\nt,a,5,7\nt,b,3,1\n")
        code, out, err = run_cli(["poll", path], capsys)
        assert code == EX_DATA and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "MalformedRow", "message": f"{path}: header repeats column(s) ['count']"}
        ]

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_split_topic_is_scored_whole(self, tmp_path, flags, capsys):
        # topic a's rows come on both sides of topic b's
        path = write(tmp_path, "poll.csv",
                     "topic,stance,count\na,x,3\na,__none__,0\nb,x,4\nb,y,5\na,y,6\n")
        code, out, _ = run_cli(["poll", path, *flags], capsys)
        whole = write(tmp_path, "whole.csv", "topic,stance,count\na,x,3\na,__none__,0\na,y,6\n"
                      "b,x,4\nb,y,5\n")
        assert (code, out) == (0, run_cli(["poll", whole, *flags], capsys)[1])
        assert out.splitlines()[-2:] in (
            ["a,9,2,0.444444,0.888889", "b,9,2,0.493827,0.987654"],
            ['{"topic": "a", "n": 9, "k": 2, "raw": 0.444444, "normalized": 0.888889}',
             '{"topic": "b", "n": 9, "k": 2, "raw": 0.493827, "normalized": 0.987654}'])

    def test_duplicate_stance_across_a_split_topic_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "poll.csv", "topic,stance,count\nt,s,3\nt,r,2\nu,s,4\nt,s,5\n")
        code, out, err = run_cli(["poll", path], capsys)
        assert code == EX_DATA and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "DuplicateStanceRow", "message": "t/s appears twice"}
        ]

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_population_too_long_to_write_is_data_error(self, tmp_path, flags, capsys):
        # each count has as many digits as int() reads; their sum has one more
        limit = sys.get_int_max_str_digits()
        path = write(tmp_path, "poll.csv", f"topic,stance,count\nt,a,{'9' * limit}\nt,b,5\n")
        code, _, err = run_cli(["poll", path, *flags], capsys)
        assert code == EX_DATA
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "ResultTooLarge",
             "message": f"a result has more than {limit} digits, too many to write as text"}
        ]

    def test_percent_totals_that_disagree_are_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "percent.csv",
                     "topic,stance,percent,total\nt,a,50,1000\nt,b,50,999\n")
        code, out, err = run_cli(["poll", path], capsys)
        assert code == EX_DATA and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "MalformedRow", "message": "topic 't' carries conflicting respondent totals"}
        ]

    def test_sampled_estimator_deterministic(self, poll_csv, capsys):
        argv = ["poll", poll_csv, "--samples", "20000", "--seed", "9"]
        code_a, out_a, _ = run_cli(argv, capsys)
        code_b, out_b, _ = run_cli(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        normalized = float(out_a.strip().splitlines()[1].split(",")[-1])
        assert math.isclose(normalized, 0.0784, abs_tol=0.02)

    @pytest.mark.parametrize("command", ["poll", "votes"])
    @pytest.mark.parametrize("a, b", [("9" * 309, "5"), ("15" + "0" * 307, "15" + "0" * 307)],
                             ids=["past-float-range", "sum-past-float-range"])
    def test_sampled_counts_past_the_float_range(self, tmp_path, command, a, b, capsys):
        header = "topic,stance,count" if command == "poll" else "region,option,count"
        path = write(tmp_path, "big.csv", f"{header}\nt,a,{a}\nt,b,{b}\n")
        code, out, err = run_cli([command, path, "--samples", "10"], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows and all(row[1] == str(int(a) + int(b)) for row in rows)

    @pytest.mark.parametrize("command", ["poll", "votes"])
    @pytest.mark.parametrize("samples", [10**18, 10**20],
                             ids=["past-the-address-space", "past-the-array-length"])
    def test_samples_too_many_to_hold_is_data_error(self, tmp_path, command, samples, capsys):
        # 10**18 one-byte draws ask for more than any 64-bit address space
        # maps, and 10**20 for more than an array's length, so both fail
        # before anything is allocated
        header = "topic,stance,count" if command == "poll" else "region,option,count"
        path = write(tmp_path, "t.csv", f"{header}\nt,leave,5\nt,remain,3\n")
        code, out, err = run_cli([command, path, "--samples", str(samples)], capsys)
        assert (code, out) == (EX_DATA, "")
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "MemoryError"

    def test_brexit_national_fixture(self, tmp_path, capsys):
        path = write(tmp_path, "brexit.csv",
                     "topic,stance,count\nbrexit,leave,17410742\nbrexit,remain,16141241\n")
        code, out, _ = run_cli(["poll", path, "--precision", "2"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].endswith("1.00")


class TestVotesCommand:
    def test_brexit_districts(self, brexit_votes_csv, capsys):
        code, out, _ = run_cli(["votes", brexit_votes_csv, "--precision", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "region,n,k,raw,normalized"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["gibraltar"][4] == "0.16"
        assert set(rows) == {"__all__", "dover", "gibraltar"}

    def test_turnout_eligible(self, us_votes_csv, capsys):
        code, out, _ = run_cli(
            ["votes", us_votes_csv, "--turnout", "eligible", "--precision", "2"], capsys
        )
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        assert rows["us"][4] == "0.31"

    def test_eligible_below_a_ballot_total_too_long_to_write(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = write(tmp_path, "votes.csv",
                     f"region,option,count\nr1,a,{'9' * limit}\nr1,b,7\nr1,__eligible__,30\n")
        code, out, err = run_cli(["votes", path], capsys)
        assert code == EX_DATA and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "EligibleLessThanVotes",
             "message": f"region 'r1': eligible 30 < more than {limit} digits of ballots cast"}
        ]

    def test_turnout_ballots_gives_two_candidate_value(self, us_votes_csv, capsys):
        code, out, _ = run_cli(["votes", us_votes_csv, "--precision", "2"], capsys)
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        assert rows["us"][4] == "0.89"

    def test_split_region_is_scored_whole(self, tmp_path, capsys):
        # us's rows come on both sides of uk's, its __eligible__ row after them
        us = ["us,clinton,65853514", "us,trump,62984828"]
        uk = ["uk,clinton,10", "uk,trump,20", "uk,__eligible__,50"]
        us_rest = ["us,__none__,7830934", "us,__eligible__,230585915"]
        split = write(tmp_path, "split.csv", "\n".join(["region,option,count", *us, *uk, *us_rest]))
        whole = write(tmp_path, "whole.csv", "\n".join(["region,option,count", *us, *us_rest, *uk]))
        code, out, _ = run_cli(["votes", split, "--turnout", "eligible"], capsys)
        assert (code, out) == (0, run_cli(["votes", whole, "--turnout", "eligible"], capsys)[1])
        assert "us,230585915,2,0.156020,0.312039" in out.splitlines()

    def test_unknown_flag_is_usage_error(self, brexit_votes_csv, capsys):
        code, _, _ = run_cli(["votes", brexit_votes_csv, "--definitely-not-a-flag"], capsys)
        assert code == EX_USAGE


class TestTweetsCommand:
    def test_timeseries_matches_hand_computation(self, tweet_fixture, capsys):
        stream, lexicon, totals = tweet_fixture
        code, out, err = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--totals", totals], capsys
        )
        assert code == 0
        assert out == EXPECTED_TIMESERIES
        assert "# tweets: 9 parsed, 0 parse errors" in err
        assert "leave=5" in err and "remain=3" in err

    def test_byte_identical_across_runs_and_threads(self, tweet_fixture, capsys):
        stream, lexicon, totals = tweet_fixture
        outputs = []
        for threads in ("1", "2", "4"):
            for _ in range(2):
                code, out, _ = run_cli(
                    ["tweets", stream, "--lexicon", lexicon, "--totals", totals,
                     "--threads", threads],
                    capsys,
                )
                assert code == 0
                outputs.append(out)
        assert len(set(outputs)) == 1

    def test_json_mode_uses_nulls_for_absent_values(self, tweet_fixture, capsys):
        stream, lexicon, totals = tweet_fixture
        code, out, _ = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--totals", totals, "--json"], capsys
        )
        assert code == 0
        last = json.loads(out.strip().splitlines()[-1])
        assert last["date"] == "2016-06-23"
        assert last["n_all"] == 5 and last["norm_all"] == 0.0
        assert last["raw_stanced"] is None and last["norm_stanced"] is None

    def test_no_totals_blanks_all_variant(self, tweet_fixture, capsys):
        stream, lexicon, _ = tweet_fixture
        code, out, _ = run_cli(["tweets", stream, "--lexicon", lexicon], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("2016-06-21,,4,2,,,")

    def test_no_matches_yields_zero_or_absent(self, tmp_path, capsys):
        stream = write(tmp_path, "s.jsonl",
                       tweet_line(1, "2016-06-21T08:00:00Z", "u1", ["unrelated"]) + "\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        totals = write(tmp_path, "t.csv", "date,total\n2016-06-21,1\n")
        code, out, _ = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--totals", totals], capsys
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2016-06-21,1,0,2,0.000000,0.000000,,"

    def test_totals_date_in_basic_iso_form_is_data_error(self, tmp_path, capsys):
        stream = write(tmp_path, "s.jsonl",
                       tweet_line(1, "2016-05-01T08:00:00Z", "u1", ["voteleave"]) + "\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        totals = write(tmp_path, "t.csv", "date,total\n20160501,1\n")
        code, out, err = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--totals", totals], capsys
        )
        assert code == EX_DATA and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "MalformedRow"

    def test_by_user_excludes_conflicted_user(self, tmp_path, capsys):
        lines = [
            tweet_line(1, "2016-06-21T08:00:00Z", "fence-sitter", ["voteleave"]),
            tweet_line(2, "2016-06-21T09:00:00Z", "fence-sitter", ["voteremain"]),
            tweet_line(3, "2016-06-21T10:00:00Z", "loyal", ["voteleave"]),
            tweet_line(4, "2016-06-21T11:00:00Z", "loyal", ["voteleave"]),
        ]
        stream = write(tmp_path, "s.jsonl", "\n".join(lines) + "\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        code, out, _ = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--by-user"], capsys
        )
        assert code == 0
        # only "loyal" counts, once, despite two tweets
        assert out.strip().splitlines()[1].split(",")[2] == "1"

    def test_error_budget_exceeded(self, tmp_path, capsys):
        lines = [tweet_line(1, "2016-06-21T08:00:00Z", "u", ["voteleave"]), "{broken"]
        stream = write(tmp_path, "s.jsonl", "\n".join(lines) + "\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        code, _, err = run_cli(["tweets", stream, "--lexicon", lexicon], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ErrorBudgetExceeded"

    def test_non_utf8_line_counts_against_the_budget(self, tmp_path, capsys):
        good = tweet_line(1, "2016-06-21T08:00:00Z", "u", ["voteleave"]).encode()
        stream = tmp_path / "s.jsonl"
        stream.write_bytes(good + b"\n\xff\xfe\n" + good + b"\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        code, out, err = run_cli(
            ["tweets", str(stream), "--lexicon", lexicon, "--error-budget", "0.5"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2016-06-21,,2,2,")
        assert err.splitlines()[0] == "# tweets: 2 parsed, 1 parse errors (33.33%)"
        code, _, err = run_cli(
            ["tweets", str(stream), "--lexicon", lexicon, "--error-budget", "0.3"], capsys
        )
        assert code == EX_DATA
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ErrorBudgetExceeded"

    def test_line_nested_past_the_recursion_limit_counts_as_malformed(self, tmp_path, capsys):
        good = tweet_line(1, "2016-06-21T08:00:00Z", "u", ["voteleave"])
        stream = write(tmp_path, "deep.jsonl", good + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        code, out, err = run_cli(
            ["tweets", stream, "--lexicon", lexicon, "--error-budget", "1"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("2016-06-21,,1,2,")
        assert err.splitlines()[0] == "# tweets: 1 parsed, 1 parse errors (50.00%)"

    def test_missing_lexicon_is_usage_error(self, tweet_fixture, capsys):
        stream, _, _ = tweet_fixture
        code, _, _ = run_cli(["tweets", stream], capsys)
        assert code == EX_USAGE

    def test_empty_stream_without_totals_is_data_error(self, tmp_path, capsys):
        stream = write(tmp_path, "empty.jsonl", "")
        lexicon = write(tmp_path, "lex.json", json.dumps(BREXIT_LEXICON))
        code, _, err = run_cli(["tweets", stream, "--lexicon", lexicon], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip().splitlines()[-1])["error"] == "EmptyInput"


class TestQuadrantCommand:
    @pytest.fixture
    def quadrant_csv(self, tmp_path):
        return write(tmp_path, "quad.csv",
                     "topic,stance,count,importance\n"
                     "national-parks,yes,930116,6.1\n"
                     "national-parks,no,69884,6.1\n")

    def test_reported_contention(self, quadrant_csv, capsys):
        code, out, _ = run_cli(
            ["quadrant", quadrant_csv, "--importance-scale", "0", "10",
             "--precision", "2"],
            capsys,
        )
        assert code == 0
        assert out == "topic,contention,importance\nnational-parks,0.26,0.61\n"

    def test_single_topic_single_row(self, quadrant_csv, capsys):
        code, out, _ = run_cli(
            ["quadrant", quadrant_csv, "--importance-scale", "0", "10"], capsys
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_missing_importance_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "q.csv",
                     "topic,stance,count,importance\nt,a,1,\nt,b,1,\n")
        code, _, err = run_cli(["quadrant", path, "--importance-scale", "0", "10"], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip())["error"] == "MissingImportance"

    def test_missing_scale_is_usage_error(self, quadrant_csv, capsys):
        code, _, _ = run_cli(["quadrant", quadrant_csv], capsys)
        assert code == EX_USAGE

    def test_empty_scale_is_usage_error(self, quadrant_csv, capsys):
        code, _, _ = run_cli(["quadrant", quadrant_csv, "--importance-scale", "5", "5"], capsys)
        assert code == EX_USAGE

    @pytest.mark.parametrize("scale", [("0", "inf"), ("nan", "10"), ("0", "nan"), ("1e309", "1e310")])
    def test_non_finite_scale_is_usage_error(self, quadrant_csv, scale, capsys):
        code, out, err = run_cli(["quadrant", quadrant_csv, "--importance-scale", *scale], capsys)
        assert code == EX_USAGE and out == ""
        assert "--importance-scale" in err

    @pytest.mark.parametrize("scale", [[0, "inf"], ["-Infinity", 10], [0, 1e309], [-1e308, 1e308]])
    def test_non_finite_config_scale_is_usage_error(self, quadrant_csv, tmp_path, scale, capsys):
        config = write(tmp_path, "cfg.json", json.dumps({"importance_scale": scale}))
        code, out, err = run_cli(["quadrant", quadrant_csv, "--config", config], capsys)
        assert code == EX_USAGE and out == ""
        assert "importance-scale" in err

    @pytest.mark.parametrize("row", ["t,a,1,high", ",a,1,5"])
    def test_bad_row_is_data_error(self, tmp_path, row, capsys):
        path = write(tmp_path, "q.csv", f"topic,stance,count,importance\nt,b,1,5\n{row}\n")
        code, _, err = run_cli(["quadrant", path, "--importance-scale", "0", "10"], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip())["error"] == "MalformedRow"


class TestConfigAndHelp:
    def test_config_supplies_defaults_flags_win(self, poll_csv, tmp_path, capsys):
        config = write(tmp_path, "cfg.json", json.dumps({"precision": 2}))
        code, out, _ = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert code == 0 and "0.08\n" in out
        code, out, _ = run_cli(
            ["poll", poll_csv, "--config", config, "--precision", "4"], capsys
        )
        assert code == 0 and "0.0784\n" in out

    def test_config_with_byte_order_mark(self, poll_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"precision": 2}).encode())
        code, out, _ = run_cli(["poll", poll_csv, "--config", str(config)], capsys)
        assert code == 0 and "0.08\n" in out

    def test_config_nested_past_the_recursion_limit_is_config_error(self, poll_csv, tmp_path,
                                                                     capsys):
        config = write(tmp_path, "cfg.json", "[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert (code, out) == (EX_DATA, "")
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot read config {config}: maximum recursion")

    def test_unknown_config_key_is_data_error(self, poll_csv, tmp_path, capsys):
        config = write(tmp_path, "cfg.json", json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert code == EX_DATA
        assert json.loads(err.strip())["error"] == "ConfigError"

    def test_config_that_is_not_an_object_is_config_error(self, poll_csv, tmp_path, capsys):
        config = write(tmp_path, "cfg.json", "[]")
        code, out, err = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert (code, out) == (EX_DATA, "")
        [line] = err.splitlines()
        assert json.loads(line) == {"error": "ConfigError",
                                    "message": f"config {config} must hold a JSON object"}

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-1"], ["--seed", "-1"],
                                       ["--out", ""], ["--config", ""]])
    def test_bad_flag_value_is_usage_error(self, poll_csv, flags, capsys):
        code, out, _ = run_cli(["poll", poll_csv, *flags], capsys)
        assert code == EX_USAGE and out == ""

    @pytest.mark.parametrize("key, value", [
        ("threads", "x"), ("precision", "x"), ("precision", None), ("samples", 0),
        ("samples", 1.5), ("seed", "x"), ("error_budget", "lots"), ("importance_scale", [5, 5]),
        ("importance_scale", "0 10"), ("error_budget", "nan"), ("error_budget", -0.1),
        ("error_budget", 1.5), ("json", "false"), ("by_user", "no"), ("out", True),
        ("totals", 5), ("lexicon", ["x"]), ("out", "a\u0000b"), ("lexicon", "\u0000"),
        ("totals", "totals.csv\u0000"), ("out", ""), ("totals", ""), ("lexicon", ""),
    ])
    def test_bad_config_value_is_usage_error(self, poll_csv, tmp_path, key, value, capsys):
        config = write(tmp_path, "cfg.json", json.dumps({key: value}))
        code, out, err = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert code == EX_USAGE and out == ""
        assert key.replace("_", "-") in err or key in err

    def test_null_config_value_is_the_default_where_that_is_none(self, poll_csv, tmp_path,
                                                                 capsys):
        # unlike ("precision", None) above: --out's default is None (stdout)
        config = write(tmp_path, "cfg.json", json.dumps({"out": None}))
        code, out, err = run_cli(["poll", poll_csv, "--config", config], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["poll", poll_csv], capsys)[1]
        assert out.startswith("topic,n,k,raw,normalized\nevolution,")

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == EX_USAGE

    @pytest.mark.parametrize("cmd", ["poll", "votes", "tweets", "quadrant"])
    def test_help_documents_flags_and_schemas(self, cmd, capsys):
        code, out, _ = run_cli([cmd, "--help"], capsys)
        assert code == 0
        for flag in ("--out", "--json", "--precision", "--threads", "--normalize"):
            assert flag in out
        assert "topic,stance,count" in out  # schema notes present

    def test_normalize_observed_flag(self, tmp_path, capsys):
        # three declared stances, only two observed: observed-k renormalizes
        path = write(tmp_path, "p.csv",
                     "topic,stance,count\nt,a,50\nt,b,50\nt,c,0\n")
        code, declared, _ = run_cli(["poll", path, "--precision", "4"], capsys)
        code2, observed, _ = run_cli(
            ["poll", path, "--precision", "4", "--normalize", "observed"], capsys
        )
        assert code == code2 == 0
        assert declared.strip().splitlines()[1].endswith("0.7500")
        assert observed.strip().splitlines()[1].endswith("1.0000")


class TestEntryPoint:
    def test_module_invocation_usage_error(self):
        proc = _python("-m", "contention", "poll", "--bogus-flag")
        assert proc.returncode == EX_USAGE

    def test_module_invocation_help(self):
        proc = _python("-m", "contention", "--help")
        assert proc.returncode == 0
        assert "poll" in proc.stdout and "quadrant" in proc.stdout


# numpy blocked: the four table and tweet commands must not need it
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from contention.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
try:
    main(json.loads(sys.argv[2]))
except ImportError:
    print("sampling needs numpy")
"""


def _python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(contention.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


# modules that only some command paths import: numpy (the samplers), and
# fractions (with decimal), json and datetime (see cli and ingest)
_DEFERRED = ("numpy", "fractions", "decimal", "json", "datetime")

# prints the modules that running the given code adds to those the fresh
# interpreter already holds, so what ``site`` loads does not count
_ADDED_BY = """
import sys
before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _deferred_loaded_by(code, *args):
    proc = _python("-c", _ADDED_BY.format(code=code), *args)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    return [name for name in _DEFERRED if name in added]


def test_cli_import_leaves_numpy_unloaded():
    assert _deferred_loaded_by("import contention.cli\ncontention.cli.build_parser()") == []


def test_poll_on_a_count_file_leaves_deferred_modules_unloaded(tmp_path, poll_csv):
    run = "from contention.cli import main\nassert main(sys.argv[1:]) == 0"
    out = str(tmp_path / "out.csv")
    assert _deferred_loaded_by(run, "poll", poll_csv, "--out", out) == []
    assert Path(out).read_text(encoding="utf-8").startswith("topic,n,k,raw,normalized\n")


def test_commands_run_without_numpy(tmp_path, poll_csv, brexit_votes_csv, tweet_fixture):
    stream, lexicon, totals = tweet_fixture
    quadrant = write(tmp_path, "quad.csv", "topic,stance,count,importance\nt,a,3,4\nt,b,1,4\n")
    argvs = [
        ["poll", poll_csv],
        ["votes", brexit_votes_csv],
        ["quadrant", quadrant, "--importance-scale", "0", "10"],
        ["tweets", stream, "--lexicon", lexicon, "--totals", totals],
    ]
    sampled = ["poll", poll_csv, "--samples", "100", "--seed", "1"]
    proc = _python("-c", _WITHOUT_NUMPY, json.dumps(argvs), json.dumps(sampled))
    assert proc.returncode == 0, proc.stderr
    # a header plus the rows of each of the four commands, then the sampled
    # poll failing at its numpy import
    assert proc.stdout.count("\n") == 2 + 4 + 2 + 4 + 1
    assert proc.stdout.endswith("sampling needs numpy\n")
    assert proc.stderr.startswith("# tweets: 9 parsed")


def test_sampled_poll_runs_with_numpy(poll_csv, capsys):
    code, out, _ = run_cli(["poll", poll_csv, "--samples", "100", "--seed", "1"], capsys)
    assert code == 0 and out.startswith("topic,n,k,raw,normalized\nevolution,100,2,")


# -- golden output ------------------------------------------------------------------
#
# stdout of every subcommand on small fixtures, pinned byte for byte: a change
# to loading, scoring or writing that moves one printed digit fails here, and
# the strings are not to be regenerated to make it pass.

GOLDEN_PERCENT_POLL = (
    "topic,stance,percent,total\n"
    "brexit,leave,51.9,1000\n"
    "brexit,remain,48.1,1000\n"
    "parks,yes,93.0116,812\n"
    "parks,no,6.9884,812\n"
    "parks,__none__,0.5,812\n"
    "school,a,40,7\n"
    "school,b,35,7\n"
    "school,c,25,7\n"
)

GOLDEN_QUADRANT = (
    "topic,stance,count,importance\n"
    "national-parks,yes,930116,6.1\n"
    "national-parks,no,69884,6.1\n"
    "checks,yes,7,8.5\n"
    "checks,no,2,8.5\n"
    "checks,maybe,1,8.5\n"
    "checks,__none__,4,8.5\n"
)

# a sampled estimate whose normalized score sits on a rounding tie at 6 decimals
# (4000 draws, seed 6), so it prints the digits of the exact float operations
GOLDEN_TIE_POLL = (
    "topic,stance,count\n"
    "tie,a,5\ntie,b,4\ntie,c,3\ntie,d,2\ntie,e,1\ntie,__none__,3\n"
)

# the topline poll of the CI console-script check, sampled past three blocks
GOLDEN_TOPLINE_POLL = "topic,stance,count\nbrexit,leave,519\nbrexit,remain,481\n"

GOLDEN_ELIGIBLE_VOTES = (
    "region,option,count\n"
    "north,a,30\nnorth,b,20\nnorth,__rejected__,3\nnorth,__eligible__,100\n"
    "south,b,9\nsouth,a,1\nsouth,__none__,2\nsouth,__eligible__,40\n"
)

GOLDEN = {
    "poll-counts-csv": (
        ["poll", "{poll}"],
        "topic,n,k,raw,normalized\n"
        "evolution,100,2,0.039200,0.078400\n",
    ),
    "poll-counts-json": (
        ["poll", "{poll}", "--json"],
        '{"topic": "evolution", "n": 100, "k": 2, "raw": 0.0392, "normalized": 0.0784}\n',
    ),
    "poll-percent-csv": (
        ["poll", "{percent}"],
        "topic,n,k,raw,normalized\n"
        "brexit,1000,2,0.499278,0.998556\n"
        "parks,816,2,0.129262,0.258524\n"
        "school,7,3,0.653061,0.979592\n",
    ),
    "poll-percent-json": (
        ["poll", "{percent}", "--json"],
        '{"topic": "brexit", "n": 1000, "k": 2, "raw": 0.499278, "normalized": 0.998556}\n'
        '{"topic": "parks", "n": 816, "k": 2, "raw": 0.129262, "normalized": 0.258524}\n'
        '{"topic": "school", "n": 7, "k": 3, "raw": 0.653061, "normalized": 0.979592}\n',
    ),
    "poll-sampled": (
        ["poll", "{poll}", "--samples", "20000", "--seed", "9"],
        "topic,n,k,raw,normalized\n"
        "evolution,100,2,0.041100,0.082200\n",
    ),
    "poll-percent-sampled": (
        ["poll", "{percent}", "--samples", "3001", "--seed", "5"],
        "topic,n,k,raw,normalized\n"
        "brexit,1000,2,0.491503,0.983006\n"
        "parks,816,2,0.127624,0.255248\n"
        "school,7,3,0.661779,0.992669\n",
    ),
    "poll-sampled-tie": (
        ["poll", "{tie}", "--samples", "4000", "--seed", "6"],
        "topic,n,k,raw,normalized\n"
        "tie,18,5,0.528750,0.660938\n",
    ),
    "poll-sampled-past-three-blocks": (
        ["poll", "{topline}", "--samples", "200003", "--seed", "9"],
        "topic,n,k,raw,normalized\n"
        "brexit,1000,2,0.499813,0.999625\n",
    ),
    "votes-ballots": (
        ["votes", "{brexit}", "--turnout", "ballots"],
        "region,n,k,raw,normalized\n"
        "__all__,85055,2,0.499537,0.999073\n"
        "dover,64910,2,0.469961,0.939922\n"
        "gibraltar,20145,2,0.078370,0.156739\n",
    ),
    "votes-us-ballots": (
        ["votes", "{us}", "--turnout", "ballots"],
        "region,n,k,raw,normalized\n"
        "__all__,136669276,2,0.444123,0.888246\n"
        "us,136669276,2,0.444123,0.888246\n",
    ),
    "votes-us-eligible": (
        ["votes", "{us}", "--turnout", "eligible"],
        "region,n,k,raw,normalized\n"
        "__all__,230585915,2,0.156020,0.312039\n"
        "us,230585915,2,0.156020,0.312039\n",
    ),
    "votes-eligible-regions": (
        ["votes", "{eligible}", "--turnout", "eligible"],
        "region,n,k,raw,normalized\n"
        "__all__,140,2,0.091735,0.183469\n"
        "north,100,2,0.120000,0.240000\n"
        "south,40,2,0.011250,0.022500\n",
    ),
    "votes-eligible-regions-json": (
        ["votes", "{eligible}", "--turnout", "eligible", "--json"],
        '{"region": "__all__", "n": 140, "k": 2, "raw": 0.091735, "normalized": 0.183469}\n'
        '{"region": "north", "n": 100, "k": 2, "raw": 0.12, "normalized": 0.24}\n'
        '{"region": "south", "n": 40, "k": 2, "raw": 0.01125, "normalized": 0.0225}\n',
    ),
    "votes-sampled": (
        ["votes", "{brexit}", "--samples", "5000", "--seed", "3"],
        "region,n,k,raw,normalized\n"
        "__all__,85055,2,0.501200,1.002400\n"
        "dover,64910,2,0.477400,0.954800\n"
        "gibraltar,20145,2,0.091000,0.182000\n",
    ),
    "quadrant": (
        ["quadrant", "{quadrant}", "--importance-scale", "0", "10"],
        "topic,contention,importance\n"
        "national-parks,0.260001,0.610000\n"
        "checks,0.352041,0.850000\n",
    ),
    "quadrant-json": (
        ["quadrant", "{quadrant}", "--importance-scale", "0", "10", "--json"],
        '{"topic": "national-parks", "contention": 0.260001, "importance": 0.61}\n'
        '{"topic": "checks", "contention": 0.352041, "importance": 0.85}\n',
    ),
    "tweets": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}"],
        "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
        "2016-06-21,,4,2,,,0.375000,0.750000\n"
        "2016-06-22,,4,2,,,0.500000,1.000000\n",
    ),
    "tweets-totals": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}", "--totals", "{totals}"],
        "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
        "2016-06-21,10,4,2,0.060000,0.120000,0.375000,0.750000\n"
        "2016-06-22,8,4,2,0.125000,0.250000,0.500000,1.000000\n"
        "2016-06-23,5,0,2,0.000000,0.000000,,\n",
    ),
    "tweets-by-user": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}", "--by-user"],
        "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
        "2016-06-21,,4,2,,,0.375000,0.750000\n"
        "2016-06-22,,4,2,,,0.500000,1.000000\n",
    ),
    "tweets-by-user-totals": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}", "--by-user", "--totals", "{totals}"],
        "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
        "2016-06-21,10,4,2,0.060000,0.120000,0.375000,0.750000\n"
        "2016-06-22,8,4,2,0.125000,0.250000,0.500000,1.000000\n"
        "2016-06-23,5,0,2,0.000000,0.000000,,\n",
    ),
    "tweets-observed": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}", "--totals", "{totals}", "--normalize", "observed"],
        "date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced\n"
        "2016-06-21,10,4,2,0.060000,0.120000,0.375000,0.750000\n"
        "2016-06-22,8,4,2,0.125000,0.250000,0.500000,1.000000\n"
        "2016-06-23,5,0,0,0.000000,0.000000,,\n",
    ),
    "tweets-json": (
        ["tweets", "{stream}", "--lexicon", "{lexicon}", "--totals", "{totals}", "--json"],
        '{"date": "2016-06-21", "n_all": 10, "n_stanced": 4, "k": 2, "raw_all": 0.06, "norm_all": 0.12, "raw_stanced": 0.375, "norm_stanced": 0.75}\n'
        '{"date": "2016-06-22", "n_all": 8, "n_stanced": 4, "k": 2, "raw_all": 0.125, "norm_all": 0.25, "raw_stanced": 0.5, "norm_stanced": 1.0}\n'
        '{"date": "2016-06-23", "n_all": 5, "n_stanced": 0, "k": 2, "raw_all": 0.0, "norm_all": 0.0, "raw_stanced": null, "norm_stanced": null}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_stdout(case, tmp_path, poll_csv, brexit_votes_csv, us_votes_csv,
                       tweet_fixture, capsys):
    stream, lexicon, totals = tweet_fixture
    files = {
        "poll": poll_csv, "brexit": brexit_votes_csv, "us": us_votes_csv,
        "stream": stream, "lexicon": lexicon, "totals": totals,
        "percent": write(tmp_path, "percent.csv", GOLDEN_PERCENT_POLL),
        "quadrant": write(tmp_path, "quadrant.csv", GOLDEN_QUADRANT),
        "eligible": write(tmp_path, "eligible.csv", GOLDEN_ELIGIBLE_VOTES),
        "tie": write(tmp_path, "tie.csv", GOLDEN_TIE_POLL),
        "topline": write(tmp_path, "topline.csv", GOLDEN_TOPLINE_POLL),
    }
    template, expected = GOLDEN[case]
    code, out, _ = run_cli([arg.format(**files) for arg in template], capsys)
    assert code == 0
    assert out == expected
