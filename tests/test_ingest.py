"""Ingestion: poll/vote CSV loaders, hashtag tagging, daily tweet bucketing."""

import csv
import json
import random
import re
import sys
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contention.ingest
from contention.errors import (
    DuplicateStanceRow,
    EligibleLessThanVotes,
    EmptyInput,
    ErrorBudgetExceeded,
    MalformedRow,
    MissingEligible,
    MissingTotal,
    NegativeCount,
    TotalLessThanStanceCounts,
)
from contention.ingest import (
    ALL_REGIONS,
    _percent_count,
    DailySeries,
    DaySlice,
    RegionRow,
    RegionTable,
    all_regions_row,
    _read_csv_rows,
    _read_grouped,
    StanceLexicon,
    ingest_tweets,
    iter_tweet_stream,
    load_daily_totals,
    load_poll_topline,
    load_quadrant_topics,
    load_vote_records,
    StreamStats,
)
from contention.model import NO_STANCE, StanceCounts, StanceSpace, contention_exclusive


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


DRESS_LEXICON = {
    "topic": "dress",
    "stances": [
        {"id": "white-and-gold", "label": "White and gold",
         "hashtags": ["whiteandgold", "thedressiswhiteandgold", "blancodorado"]},
        {"id": "black-and-blue", "label": "Black and blue",
         "hashtags": ["blackandblue", "notwhiteandgold", "negroyazul"]},
    ],
}


def lexicon_of(stances):
    """A lexicon document of topic ``t`` holding ``stances``."""
    return {"topic": "t", "stances": stances}


@pytest.fixture
def dress_lexicon(tmp_path):
    path = write(tmp_path, "dress.json", json.dumps(DRESS_LEXICON))
    return StanceLexicon.from_json(path)


def tweet(id_, ts, user, hashtags):
    """One tweet as a JSONL line."""
    return json.dumps({"id": id_, "ts": ts, "user": user, "hashtags": hashtags})


def stream_of(tmp_path, tweets, name="stream.jsonl"):
    return write(tmp_path, name, "".join(line + "\n" for line in tweets))


def ingest(tmp_path, tweets, lexicon, totals=None, **options):
    """``ingest_tweets`` over one shard holding ``tweets``."""
    return ingest_tweets([stream_of(tmp_path, tweets)], lexicon, totals, **options)


def stream(tmp_path, tweets):
    """What ``iter_tweet_stream`` yields for a shard holding ``tweets``, and
    its stats."""
    stats = StreamStats()
    return list(iter_tweet_stream(stream_of(tmp_path, tweets), stats)), stats


def region(table, name):
    [row] = [r for r in table.rows if r.region == name]
    return row


class TestPollTopline:
    def test_counts_mode(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,count\n"
                     "evolution,evolved,98\n"
                     "evolution,present_form,2\n"
                     "evolution,__none__,0\n")
        [(topic, counts)] = load_poll_topline(path)
        assert topic == "evolution"
        assert counts.counts == (0, 98, 2)
        assert contention_exclusive(counts).normalized == pytest.approx(0.0784)

    def test_single_stance_topic_collapses(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,count\nt,only,40\n")
        [(_, counts)] = load_poll_topline(path)
        assert contention_exclusive(counts).raw == 0.0

    def test_negative_count(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,count\nt,a,-5\n")
        with pytest.raises(NegativeCount):
            load_poll_topline(path)

    def test_duplicate_stance_row(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,count\nt,a,1\nt,a,2\n")
        with pytest.raises(DuplicateStanceRow):
            load_poll_topline(path)

    def test_malformed_count(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,count\nt,a,lots\n")
        with pytest.raises(MalformedRow):
            load_poll_topline(path)

    def test_empty_input(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,count\n")
        with pytest.raises(EmptyInput):
            load_poll_topline(path)

    def test_percent_mode_rounds_half_to_even(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,percent,total\n"
                     "t,a,0.25,200\n"     # 0.5 respondents -> 0 (even)
                     "t,b,0.75,200\n"     # 1.5 respondents -> 2 (even)
                     "t,c,99,200\n")
        [(_, counts)] = load_poll_topline(path)
        assert counts.explicit == (0, 2, 198)

    @pytest.mark.parametrize("cell", ["1e1001", "1e1000000", "1e-1001", "1e-999999999",
                                      "0e999999999", "1e" + "9" * 4300, "1e1_0000"])
    def test_percent_exponent_past_the_limit_is_malformed(self, tmp_path, cell):
        path = write(tmp_path, "poll.csv", f"topic,stance,percent,total\nt,a,{cell},100\nt,b,5,100\n")
        with pytest.raises(MalformedRow, match="^bad percentage in row "):
            load_poll_topline(path)

    @pytest.mark.parametrize("cell", ["5_0", "1_0.5", "1e0_1", "1_0/2"])
    def test_percent_digit_separator_is_malformed(self, tmp_path, cell):
        # Fraction reads "5_0" as 50 only from Python 3.11; refused on every Python
        path = write(tmp_path, "poll.csv", f"topic,stance,percent,total\nt,a,{cell},100\nt,b,5,100\n")
        with pytest.raises(MalformedRow, match="^bad percentage in row "):
            load_poll_topline(path)

    @pytest.mark.parametrize("cell", ["100.0001", "1e3", "1e1000", "2000/19"])
    def test_percent_above_100_is_malformed(self, tmp_path, cell):
        path = write(tmp_path, "poll.csv", f"topic,stance,percent,total\nt,a,{cell},100\nt,b,5,100\n")
        with pytest.raises(MalformedRow, match="^percentage above 100 in row "):
            load_poll_topline(path)

    def test_percent_exponents_within_the_limit(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,percent,total\n"
                     "t,a,1e2,10\n"                    # exactly 100
                     "t,b,1e-1000,10\n"                # rounds to nobody
                     "t,c,0.000001E+6 ,10\n")          # 1 percent, case and space as Fraction reads
        [(_, counts)] = load_poll_topline(path)
        assert counts.explicit == (10, 0, 0)

    def test_percent_missing_total(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,percent\nt,a,50\n")
        with pytest.raises((MissingTotal, MalformedRow)):
            load_poll_topline(path)

    def test_percent_blank_total_cell(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,percent,total\nt,a,50,\n")
        with pytest.raises(MissingTotal):
            load_poll_topline(path)

    def test_neither_count_nor_percent_column(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,share\nt,a,5\n")
        with pytest.raises(MalformedRow) as info:
            load_poll_topline(path)
        assert str(info.value) == (
            "poll rows need a 'count' or 'percent' column, got "
            "{'topic': 't', 'stance': 'a', 'share': '5'}"
        )

    def test_percent_totals_must_agree_within_a_topic(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,percent,total\n"
                     "a,x,50,200\na,y,50,200\n"
                     "b,x,50,100\nb,y,50,101\n")
        with pytest.raises(MalformedRow, match="^topic 'b' carries conflicting respondent totals$"):
            load_poll_topline(path)

    def test_percent_texts_that_read_alike_give_one_count(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,percent,total\n"
                     "t,a,10,30\nt,b,1e1,30\nt,c,10.0,30\nu,a,10.0,30\nu,b,10,30\n")
        (_, t), (_, u) = load_poll_topline(path)
        assert t.counts == (0, 3, 3, 3) and u.counts == (0, 3, 3)

    @pytest.mark.parametrize("cell, error, message", [
        ("abc", MalformedRow, "bad percentage"),
        ("-5", NegativeCount, "negative percentage"),
        ("150", MalformedRow, "percentage above 100"),
    ])
    def test_repeated_bad_percent_cell_names_its_first_row(self, tmp_path, cell, error, message):
        path = write(tmp_path, "poll.csv",
                     f"topic,stance,percent,total\nt,a,{cell},10\nu,a,{cell},10\n")
        with pytest.raises(error) as info:
            load_poll_topline(path)
        assert str(info.value) == (
            f"{message} in row {{'topic': 't', 'stance': 'a', 'percent': '{cell}', 'total': '10'}}")

    def test_multiple_topics_in_file_order(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,count\nz_topic,a,1\nz_topic,b,1\na_topic,x,2\na_topic,y,2\n")
        topics = [t for t, _ in load_poll_topline(path)]
        assert topics == ["z_topic", "a_topic"]


class TestVoteRecords:
    def test_ballots_only_two_options(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nuk,leave,519\nuk,remain,481\n")
        table = load_vote_records(path)
        result = contention_exclusive(region(table, "uk").counts)
        assert round(result.normalized, 2) == 1.00

    def test_rejected_ballots_become_no_stance(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr,a,10\nr,b,10\nr,__rejected__,5\n")
        table = load_vote_records(path)
        assert region(table, "r").counts.counts == (5, 10, 10)

    def test_none_ballots_become_no_stance(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr,a,10\nr,b,10\nr,__none__,7\n")
        table = load_vote_records(path)
        assert region(table, "r").counts.no_stance == 7

    def test_eligible_population_mode(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\n"
                     "r,a,30\nr,b,20\nr,__eligible__,100\n")
        table = load_vote_records(path, "eligible")
        assert region(table, "r").counts.counts == (50, 30, 20)
        assert region(table, "r").eligible == 100

    def test_unknown_turnout_rejected(self, tmp_path):
        path = write(tmp_path, "votes.csv", "region,option,count\nr,a,30\n")
        with pytest.raises(ValueError,
                           match="^turnout must be 'ballots' or 'eligible', got 'eligble'$"):
            load_vote_records(path, "eligble")

    def test_region_ids_must_be_unique(self):
        row = RegionRow("a", StanceCounts(StanceSpace.exclusive(["x"]), (0, 1)))
        with pytest.raises(ValueError, match="^region ids must be unique$"):
            RegionTable("t", (row, row))

    def test_missing_eligible(self, tmp_path):
        path = write(tmp_path, "votes.csv", "region,option,count\nr,a,30\n")
        with pytest.raises(MissingEligible):
            load_vote_records(path, "eligible")

    def test_eligible_less_than_votes(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr,a,60\nr,b,50\nr,__eligible__,100\n")
        with pytest.raises(EligibleLessThanVotes):
            load_vote_records(path, "eligible")

    def test_all_aggregate_sums_regions(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\n"
                     "r1,a,10\nr1,b,20\nr2,a,5\nr2,b,1\n")
        table = load_vote_records(path)
        assert region(table, ALL_REGIONS).counts.counts == (0, 15, 21)

    def test_reserved_region_id_rejected(self, tmp_path):
        path = write(tmp_path, "votes.csv", "region,option,count\n__all__,a,1\n")
        with pytest.raises(MalformedRow):
            load_vote_records(path)

    def test_empty_input(self, tmp_path):
        path = write(tmp_path, "votes.csv", "region,option,count\n")
        with pytest.raises(EmptyInput):
            load_vote_records(path)

    def test_shared_space_across_regions(self, tmp_path):
        # r2 never saw option b; its count defaults to 0 on the shared space
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr1,a,5\nr1,b,5\nr2,a,9\n")
        table = load_vote_records(path)
        assert region(table, "r2").counts.counts == (0, 9, 0)


class TestLexiconAndTagging:
    def test_from_json(self, dress_lexicon):
        assert dress_lexicon.topic == "dress"
        assert dress_lexicon.space.k == 2

    def test_duplicate_hashtag_across_stances(self, tmp_path):
        # the report names the first of b's tags, in file order, that a holds
        for a_tags, b_tags, reported in [(["same"], ["same"], "same"),
                                         (["x", "y", "z"], ["#Z", "y", "x"], "z")]:
            bad = {
                "topic": "t",
                "stances": [
                    {"id": "a", "label": "a", "hashtags": a_tags},
                    {"id": "b", "label": "b", "hashtags": b_tags},
                ],
            }
            path = write(tmp_path, "bad.json", json.dumps(bad))
            with pytest.raises(MalformedRow, match=f"^lexicon {re.escape(str(path))}: hashtag "
                               f"#{reported} appears under both 'a' and 'b'$"):
                StanceLexicon.from_json(path)

    @pytest.mark.parametrize("doc, message", [
        (lexicon_of([{"id": "a", "hashtags": "vote"}, {"id": "b", "hashtags": ["no"]}]),
         "hashtags must be a JSON array of strings, got 'vote'"),
        (lexicon_of([{"id": "a", "hashtags": [5]}, {"id": "b", "hashtags": ["no"]}]),
         "hashtags must be a JSON array of strings, got [5]"),
        (lexicon_of([{"id": "", "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}]),
         "stance id must be non-empty"),
        (lexicon_of([{"id": "__none__", "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}]),
         "'__none__' is reserved for the no-stance sentinel"),
        (lexicon_of([{"id": "a", "hashtags": ["yes"]}, {"id": "a", "hashtags": ["no"]}]),
         "duplicate stance ids: ['a', 'a']"),
        (lexicon_of([{"id": None, "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}]),
         "stance id must be a JSON string, got None"),
        ({"stances": [{"id": "a", "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}]},
         "missing field 'topic'"),
        (lexicon_of([{"id": "a"}, {"id": "b", "hashtags": ["no"]}]),
         "missing field 'hashtags'"),
    ], ids=["hashtags-string", "hashtags-number", "empty-id", "reserved-id", "duplicate-id",
            "null-id", "no-topic", "no-hashtags"])
    def test_bad_lexicon_is_malformed_at_load(self, tmp_path, doc, message):
        path = write(tmp_path, "bad.json", json.dumps(doc))
        with pytest.raises(MalformedRow, match=f"^{re.escape(f'lexicon {path}: {message}')}$"):
            StanceLexicon.from_json(path)

    def test_labels_are_accepted_and_unused(self, tmp_path, dress_lexicon):
        bare = {"topic": "dress", "stances": [
            {key: value for key, value in entry.items() if key != "label"}
            for entry in DRESS_LEXICON["stances"]
        ]}
        assert all("label" in entry for entry in DRESS_LEXICON["stances"])
        for labels in (["Gold", "Blue"], [5, None], [{"x": 1}, ""]):
            labelled = {"topic": "dress", "stances": [
                {**entry, "label": label} for entry, label in zip(bare["stances"], labels)
            ]}
            lexicon = StanceLexicon.from_json(write(tmp_path, "labelled.json", json.dumps(labelled)))
            assert lexicon == dress_lexicon and hash(lexicon) == hash(dress_lexicon)
        lexicon = StanceLexicon.from_json(write(tmp_path, "bare.json", json.dumps(bare)))
        assert lexicon == dress_lexicon and hash(lexicon) == hash(dress_lexicon)

    def test_unique_stance_match(self, tmp_path, dress_lexicon):
        line = tweet("1", "2015-02-26T12:00:00Z", "u1", ["WhiteAndGold", "ootd"])
        series, stats = ingest(tmp_path, [line], dress_lexicon)
        assert stats.tagged == {"white-and-gold": 1}
        assert series.days[0].counts.explicit == (1, 0)

    def test_no_match_is_no_stance(self, tmp_path, dress_lexicon):
        line = tweet("2", "2015-02-26T12:00:00Z", "u1", ["nofilter"])
        series, stats = ingest(tmp_path, [line], dress_lexicon)
        assert stats.parsed == 1 and stats.tagged == {}
        assert series.days[0].counts.explicit == (0, 0)

    def test_cross_stance_match_is_no_stance(self, tmp_path, dress_lexicon):
        line = tweet("3", "2015-02-26T12:00:00Z", "u1", ["blackandblue", "whiteandgold"])
        series, stats = ingest(tmp_path, [line], dress_lexicon)
        assert stats.parsed == 1 and stats.tagged == {}
        assert series.days[0].counts.explicit == (0, 0)

    def test_multilingual_and_unicode_folding(self, tmp_path, dress_lexicon):
        line = tweet("5", "2015-02-26T12:00:00Z", "u1", ["NegroYAzul"])
        _, stats = ingest(tmp_path, [line], dress_lexicon)
        assert stats.tagged == {"black-and-blue": 1}

    def test_determinism(self, tmp_path, dress_lexicon):
        line = tweet("6", "2015-02-26T12:00:00Z", "u1", ["whiteandgold"])
        runs = {repr(ingest(tmp_path, [line], dress_lexicon)) for _ in range(20)}
        assert len(runs) == 1

    def test_lexicon_nested_past_the_recursion_limit_is_malformed(self, tmp_path):
        path = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
        with pytest.raises(MalformedRow, match=f"^cannot read lexicon {re.escape(str(path))}: "):
            StanceLexicon.from_json(path)

    def test_from_json_drops_byte_order_mark(self, tmp_path, dress_lexicon):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(DRESS_LEXICON).encode())
        bom = StanceLexicon.from_json(path)
        assert bom == dress_lexicon and hash(bom) == hash(dress_lexicon)
        assert {bom, dress_lexicon} == {dress_lexicon}

    def test_tag_spelled_in_its_canonical_form_matches(self, tmp_path):
        # case folding turns U+1F8C into U+1F04 U+03B9; NFC applied once
        # more composes that iota with the accent into U+03AF
        lexicon = StanceLexicon.from_json(write(tmp_path, "greek.json", json.dumps(
            {"topic": "t", "stances": [{"id": "a", "hashtags": ["\u1f8c\u0301"]},
                                       {"id": "b", "hashtags": ["other"]}]})))
        assert lexicon.tag_index == {"\u1f04\u03af": "a", "other": "b"}
        stream = write(tmp_path, "s.jsonl", "".join(
            json.dumps({"id": str(i), "ts": "2016-01-01T00:00:00Z", "user": "u",
                        "hashtags": [tag]}) + "\n"
            for i, tag in enumerate(["\u1f04\u03af", "\u1f04\u03b9\u0301", "#\u1f8c\u0301"])))
        _, stats = ingest_tweets([stream], lexicon)
        assert stats.tagged == {"a": 3}

    def test_tag_index_is_built_once_and_read_only(self, dress_lexicon):
        tags = dict(dress_lexicon.tag_index)
        direct = StanceLexicon("dress", dress_lexicon.space, tags)
        tags["negroyazul"] = "white-and-gold"  # the lexicon holds its own copy
        assert direct == dress_lexicon and hash(direct) == hash(dress_lexicon)
        for lexicon in (dress_lexicon, direct):
            index = lexicon.tag_index
            assert index is lexicon.tag_index
            assert index["negroyazul"] == "black-and-blue"
            with pytest.raises(TypeError):
                index["negroyazul"] = "white-and-gold"

    @pytest.mark.parametrize("space, index, message", [
        (StanceSpace.exclusive(["a", "b"]), {"yes": "a", "no": "c"}, "outside its space"),
        (StanceSpace.from_conflict_pairs(["a", "b"], []), {"yes": "a"}, "mutually exclusive"),
        (StanceSpace.from_conflict_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")]), {},
         "mutually exclusive"),
    ], ids=["id-outside-space", "no-conflicts", "some-conflicts"])
    def test_direct_lexicon_needs_an_exclusive_space_holding_every_indexed_id(
        self, space, index, message
    ):
        with pytest.raises(ValueError, match=message):
            StanceLexicon("t", space, index)


class TestTimestamps:
    def day_of(self, tmp_path, ts):
        [(day, _, _)], _ = stream(tmp_path, [tweet("1", ts, "u1", [])])
        return day

    def test_z_suffix(self, tmp_path):
        assert self.day_of(tmp_path, "2016-06-23T10:00:00Z") == date(2016, 6, 23)

    def test_offset_normalized_to_utc(self, tmp_path):
        # crosses the UTC day boundary
        assert self.day_of(tmp_path, "2016-06-23T23:30:00-05:00") == date(2016, 6, 24)

    def test_naive_treated_as_utc(self, tmp_path):
        # an hour before UTC midnight: a zone west of UTC would move it on
        assert self.day_of(tmp_path, "2016-06-23T23:00:00") == date(2016, 6, 23)

    def test_garbage_rejected(self, tmp_path):
        yielded, stats = stream(tmp_path, [tweet("1", "yesterday-ish", "u1", [])])
        assert yielded == [] and (stats.lines, stats.parse_errors) == (1, 1)

    @pytest.mark.parametrize("text", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
    def test_shift_out_of_range_rejected(self, tmp_path, text):
        yielded, stats = stream(tmp_path, [tweet("1", text, "u1", [])])
        assert yielded == [] and (stats.lines, stats.parse_errors) == (1, 1)

    def test_missing_field_is_malformed(self, tmp_path):
        fields = {"id": "1", "ts": "2016-01-01T00:00:00Z", "user": "u1", "hashtags": []}
        lines = [json.dumps({k: v for k, v in fields.items() if k != missing})
                 for missing in fields]
        yielded, stats = stream(tmp_path, lines)
        assert yielded == [] and (stats.lines, stats.parse_errors) == (4, 4)


class TestBuildDailyCounts:
    @pytest.mark.parametrize("days", [("2016-01-02", "2016-01-01"), ("2016-01-01", "2016-01-01")],
                             ids=["decreasing", "repeated"])
    def test_days_must_strictly_increase(self, days):
        zero = StanceCounts(StanceSpace.exclusive(["x"]), (0, 0))
        slices = tuple(DaySlice(date.fromisoformat(d), zero) for d in days)
        with pytest.raises(ValueError, match="^days must be strictly increasing by date$"):
            DailySeries("t", slices)

    def test_worked_example(self, tmp_path, dress_lexicon):
        tweets = (
            [tweet(str(i), "2015-02-26T10:00:00Z", f"u{i}", ["whiteandgold"]) for i in range(30)]
            + [tweet(str(100 + i), "2015-02-26T11:00:00Z", f"v{i}", ["blackandblue"]) for i in range(20)]
        )
        totals = {date(2015, 2, 26): 1000}
        series, _ = ingest(tmp_path, tweets, dress_lexicon, totals)
        [day] = series.days
        assert day.counts.counts == (950, 30, 20)
        assert day.has_total
        assert sum(day.counts.counts) == 1000  # partition invariant

    def test_zero_tagged_day(self, tmp_path, dress_lexicon):
        totals = {date(2015, 2, 26): 500}
        series, _ = ingest(tmp_path, [], dress_lexicon, totals)
        [day] = series.days
        assert day.counts.counts == (500, 0, 0)
        assert contention_exclusive(day.counts).raw == 0.0

    def test_total_less_than_tagged(self, tmp_path, dress_lexicon):
        tweets = [tweet(str(i), "2015-02-26T10:00:00Z", f"u{i}", ["whiteandgold"])
                  for i in range(30)]
        with pytest.raises(TotalLessThanStanceCounts):
            ingest(tmp_path, tweets, dress_lexicon, {date(2015, 2, 26): 10})

    def test_day_without_total_keeps_stanced_variant(self, tmp_path, dress_lexicon):
        tweets = [tweet("1", "2015-02-26T10:00:00Z", "u1", ["whiteandgold"])]
        series, _ = ingest(tmp_path, tweets, dress_lexicon, totals=None)
        [day] = series.days
        assert not day.has_total
        assert day.counts.counts == (0, 1, 0)

    def test_order_independence(self, tmp_path, dress_lexicon):
        tweets = [
            tweet(str(i), f"2015-02-{26 + (i % 2):02d}T10:00:00Z", f"u{i}",
                  ["whiteandgold"] if i % 3 else ["blackandblue"])
            for i in range(60)
        ]
        shuffled = tweets[:]
        random.Random(5).shuffle(shuffled)
        a = ingest_tweets([stream_of(tmp_path, tweets, "a.jsonl")], dress_lexicon)
        b = ingest_tweets([stream_of(tmp_path, shuffled, "b.jsonl")], dress_lexicon)
        assert a == b

    def test_by_user_counts_distinct_users(self, tmp_path, dress_lexicon):
        tweets = [
            tweet("1", "2015-02-26T10:00:00Z", "alice", ["whiteandgold"]),
            tweet("2", "2015-02-26T11:00:00Z", "alice", ["whiteandgold"]),
            tweet("3", "2015-02-26T12:00:00Z", "bob", ["blackandblue"]),
        ]
        series, _ = ingest(tmp_path, tweets, dress_lexicon, by_user=True)
        assert series.days[0].counts.explicit == (1, 1)

    def test_by_user_conflicting_user_excluded(self, tmp_path, dress_lexicon):
        tweets = [
            tweet("1", "2015-02-26T10:00:00Z", "alice", ["whiteandgold"]),
            tweet("2", "2015-02-27T10:00:00Z", "alice", ["blackandblue"]),
            tweet("3", "2015-02-26T12:00:00Z", "bob", ["blackandblue"]),
        ]
        series, _ = ingest(tmp_path, tweets, dress_lexicon, by_user=True)
        by_date = {d.date: d.counts.explicit for d in series.days}
        # alice posted both stances across the window: dropped from both days
        assert by_date[date(2015, 2, 26)] == (0, 1)
        assert by_date[date(2015, 2, 27)] == (0, 0)


class TestTweetStream:
    def make_stream(self, tmp_path, lines):
        return write(tmp_path, "stream.jsonl", "\n".join(lines) + "\n")

    def good_line(self, i):
        return json.dumps({"id": str(i), "ts": "2015-02-26T10:00:00Z",
                           "user": f"u{i}", "hashtags": ["whiteandgold"]})

    def test_stats_and_skipping(self, tmp_path):
        bad_ts = json.dumps({"id": "y", "ts": "not-a-time", "user": "u", "hashtags": []})
        lines = [self.good_line(i) for i in range(8)] + ["{broken", json.dumps({"id": "x"}), bad_ts]
        path = self.make_stream(tmp_path, lines)
        stats = StreamStats()
        records = list(iter_tweet_stream(path, stats))
        assert len(records) == 8
        assert stats.lines == 11
        assert stats.parse_errors == 3  # bad JSON, missing fields, bad timestamp

    def test_budget_exceeded(self, tmp_path, dress_lexicon):
        lines = [self.good_line(i) for i in range(8)] + ["{broken", "{worse"]
        path = self.make_stream(tmp_path, lines)
        with pytest.raises(ErrorBudgetExceeded):
            ingest_tweets([path], dress_lexicon, error_budget=0.001)

    def test_budget_allows_within_limit(self, tmp_path, dress_lexicon):
        lines = [self.good_line(i) for i in range(8)] + ["{broken"]
        path = self.make_stream(tmp_path, lines)
        series, stats = ingest_tweets([path], dress_lexicon, error_budget=0.5)
        assert stats.parse_errors == 1
        assert stats.parsed == 8
        assert series.days[0].counts.explicit == (8, 0)

    def test_shards_merge_like_single_file(self, tmp_path, dress_lexicon):
        all_lines = [self.good_line(i) for i in range(20)]
        whole = self.make_stream(tmp_path, all_lines)
        shard_a = write(tmp_path, "a.jsonl", "\n".join(all_lines[:9]) + "\n")
        shard_b = write(tmp_path, "b.jsonl", "\n".join(all_lines[9:]) + "\n")
        single, _ = ingest_tweets([whole], dress_lexicon)
        sharded, _ = ingest_tweets([shard_a, shard_b], dress_lexicon)
        flipped, _ = ingest_tweets([shard_b, shard_a], dress_lexicon)
        assert single == sharded == flipped

    def test_non_list_hashtags_count_against_budget(self, tmp_path, dress_lexicon):
        # a string must not be read one character at a time, nor an object by its keys
        odd = [{"id": "s", "ts": "2015-02-26T10:00:00Z", "user": "s", "hashtags": "whiteandgold"},
               {"id": "o", "ts": "2015-02-26T10:00:00Z", "user": "o",
                "hashtags": {"blackandblue": 1}}]
        for obj in odd:
            yielded, stats = stream(tmp_path, [json.dumps(obj)])
            assert yielded == [] and (stats.lines, stats.parse_errors) == (1, 1)
        lines = [self.good_line(i) for i in range(8)] + [json.dumps(obj) for obj in odd]
        path = self.make_stream(tmp_path, lines)
        series, stats = ingest_tweets([path], dress_lexicon, error_budget=0.5)
        assert (stats.lines, stats.parsed, stats.parse_errors) == (10, 8, 2)
        assert stats.tagged == {"white-and-gold": 8}
        assert series.days[0].counts.explicit == (8, 0)
        with pytest.raises(ErrorBudgetExceeded):
            ingest_tweets([path], dress_lexicon, error_budget=0.1)

    def test_out_of_range_values_count_against_budget(self, tmp_path, dress_lexicon):
        # a timestamp the UTC shift pushes out of range, and an integer past
        # the interpreter's digit limit for int/str conversion
        shifted = json.dumps({"id": "t", "ts": "0001-01-01T00:30:00+01:00",
                              "user": "t", "hashtags": ["whiteandgold"]})
        huge = ('{"id": 1' + "0" * 5000 + ', "ts": "2015-02-26T10:00:00Z", '
                '"user": "h", "hashtags": ["whiteandgold"]}')
        lines = [self.good_line(i) for i in range(8)] + [shifted, huge]
        path = self.make_stream(tmp_path, lines)
        series, stats = ingest_tweets([path], dress_lexicon, error_budget=0.5)
        assert (stats.lines, stats.parsed, stats.parse_errors) == (10, 8, 2)
        assert series.days[0].counts.explicit == (8, 0)
        with pytest.raises(ErrorBudgetExceeded):
            ingest_tweets([path], dress_lexicon, error_budget=0.1)

    def test_non_utf8_line_counts_against_budget(self, tmp_path, dress_lexicon):
        path = tmp_path / "stream.jsonl"
        escaped = json.dumps({"id": "e", "ts": "2015-02-26T10:00:00Z", "user": "\udcff",
                              "hashtags": ["whiteandgold"]})
        path.write_bytes(b"\n".join([self.good_line(1).encode(), b"\xff\xfe",
                                     escaped.encode(),
                                     self.good_line(2).encode().replace(b"u2", b"u\xc32"), b""]))
        stats = StreamStats()
        assert [user for _, user, _ in iter_tweet_stream(path, stats)] == ["u1", "\udcff"]
        assert (stats.lines, stats.parsed, stats.parse_errors) == (4, 2, 2)
        series, _ = ingest_tweets([path], dress_lexicon, error_budget=0.5)
        assert series.days[0].counts.explicit == (2, 0)
        with pytest.raises(ErrorBudgetExceeded):
            ingest_tweets([path], dress_lexicon, error_budget=0.4)

    @pytest.mark.parametrize("by_user", [False, True], ids=["tweet", "user"])
    def test_no_shards(self, dress_lexicon, by_user):
        series, stats = ingest_tweets([], dress_lexicon, by_user=by_user)
        assert series.days == () and stats == StreamStats()
        totals = {date(2015, 2, 26): 5}
        series, _ = ingest_tweets([], dress_lexicon, totals, by_user=by_user)
        [day] = series.days
        assert day.has_total and day.counts.counts == (5, 0, 0)


class TestSmallLoaders:
    def test_daily_totals(self, tmp_path):
        path = write(tmp_path, "totals.csv", "date,total\n2015-02-26,100\n2015-02-27,50\n")
        totals = load_daily_totals(path)
        assert totals == {date(2015, 2, 26): 100, date(2015, 2, 27): 50}

    def test_daily_totals_duplicate_date(self, tmp_path):
        path = write(tmp_path, "totals.csv", "date,total\n2015-02-26,1\n2015-02-26,2\n")
        with pytest.raises(DuplicateStanceRow):
            load_daily_totals(path)

    def test_daily_totals_header_only(self, tmp_path):
        path = write(tmp_path, "totals.csv", "date,total\n")
        with pytest.raises(EmptyInput):
            load_daily_totals(path)

    def test_daily_totals_bad_date(self, tmp_path):
        path = write(tmp_path, "totals.csv", "date,total\nFeb 26,1\n")
        with pytest.raises(MalformedRow):
            load_daily_totals(path)

    @pytest.mark.parametrize("text", ["20160501", "2016-W18-7"])
    def test_daily_totals_read_no_other_iso_date_form(self, tmp_path, text):
        """Python 3.11+'s date.fromisoformat reads these basic and week
        forms too; a totals date is YYYY-MM-DD on every Python."""
        path = write(tmp_path, "totals.csv", f"date,total\n{text},1\n")
        with pytest.raises(MalformedRow, match=r"bad date .* \(want YYYY-MM-DD\)"):
            load_daily_totals(path)

    def test_quadrant_topics(self, tmp_path):
        path = write(tmp_path, "quad.csv",
                     "topic,stance,count,importance\n"
                     "parks,yes,93,6.1\nparks,no,7,6.1\n"
                     "war,yes,50,\nwar,no,50,\n")
        rows = load_quadrant_topics(path)
        by_topic = {t: (c.explicit, imp) for t, c, imp in rows}
        assert by_topic["parks"] == ((93, 7), 6.1)
        assert by_topic["war"][1] is None

    def test_quadrant_conflicting_importance(self, tmp_path):
        path = write(tmp_path, "quad.csv",
                     "topic,stance,count,importance\nt,a,1,3\nt,b,1,4\n")
        with pytest.raises(MalformedRow, match="^topic 't' carries conflicting importance ratings$"):
            load_quadrant_topics(path)

    def test_quadrant_rating_texts_that_read_alike_agree(self, tmp_path):
        path = write(tmp_path, "quad.csv", "topic,stance,count,importance\n"
                     "t,a,1,7\nt,b,1,7.0\nu,a,1,7\nt,c,1,7\nt,d,1, 7e0\n")
        (_, t, rating), (_, _, other) = load_quadrant_topics(path)
        assert t.counts == (0, 1, 1, 1, 1) and rating == other == 7.0

    @pytest.mark.parametrize("later, message", [
        ("x", "^importance 'x' is not a number in row .*'stance': 'c'"),
        ("inf", "^importance 'inf' is not finite in row .*'stance': 'c'"),
        ("", "^topic 't' carries conflicting importance ratings$"),
        ("8", "^topic 't' carries conflicting importance ratings$"),
    ])
    def test_quadrant_bad_later_rating_text(self, tmp_path, later, message):
        path = write(tmp_path, "quad.csv", "topic,stance,count,importance\n"
                     f"t,a,1,7\nt,b,1,7\nu,a,1,7\nt,c,1,{later}\n")
        with pytest.raises(MalformedRow, match=message):
            load_quadrant_topics(path)

    def test_quadrant_non_numeric_importance(self, tmp_path):
        path = write(tmp_path, "quad.csv",
                     "topic,stance,count,importance\nt,a,1,high\nt,b,1,high\n")
        with pytest.raises(MalformedRow):
            load_quadrant_topics(path)

    @pytest.mark.parametrize("rating", ["nan", "inf", "-Infinity"])
    def test_quadrant_non_finite_importance(self, tmp_path, rating):
        # NaN != NaN, so a shared NaN rating must not pass for a conflict
        path = write(tmp_path, "quad.csv",
                     f"topic,stance,count,importance\nt,a,1,{rating}\nt,b,1,{rating}\n")
        with pytest.raises(MalformedRow, match=rf"importance '{rating}' is not finite in row .*'stance': 'a'"):
            load_quadrant_topics(path)


class TestSharedSpaces:
    POLL = ("topic,stance,count\n"
            "t1,yes,3\nt1,no,4\n"
            "t2,no,5\nt2,yes,6\n"
            "t3,yes,7\nt3,__none__,2\nt3,no,8\n"
            "t4,__none__,9\n")

    def test_poll_topics_with_one_stance_list_share_a_space(self, tmp_path):
        (_, t1), (_, t2), (_, t3), (_, t4) = load_poll_topline(write(tmp_path, "p.csv", self.POLL))
        assert t3.space is t1.space and t3.counts == (2, 7, 8)
        # the same stances in another order are another space
        assert t2.space is not t1.space and t2.space != t1.space
        assert t2.space.ids == ("no", "yes") and t2.counts == (0, 5, 6)
        assert t4.space.k == 0 and t4.counts == (9,)

    def test_quadrant_topics_with_one_stance_list_share_a_space(self, tmp_path):
        path = write(tmp_path, "q.csv", "topic,stance,count,importance\n"
                     "t1,a,1,2\nt1,b,2,2\nt2,b,3,\nt2,a,4,\nt3,a,5,1\nt3,b,6,1\n"
                     "t4,__none__,7,3\n")
        (_, t1, _), (_, t2, _), (_, t3, _), (_, t4, rating) = load_quadrant_topics(path)
        assert t3.space is t1.space and t2.space is not t1.space
        assert t4.counts == (7,) and rating == 3.0

    def test_spaces_are_not_shared_across_loads(self, tmp_path):
        path = write(tmp_path, "p.csv", self.POLL)
        assert load_poll_topline(path)[0][1].space is not load_poll_topline(path)[0][1].space


def _reference_exclusive_counts(stances):
    """One fresh space per topic, filled through from_mapping: the loaders'
    counts before spaces were shared."""
    explicit = {sid: c for sid, c in stances.items() if sid != NO_STANCE}
    space = StanceSpace.exclusive(list(explicit))
    return StanceCounts.from_mapping(space, explicit, no_stance=stances.get(NO_STANCE, 0))


@st.composite
def stance_tables(draw):
    """Topics whose stance lists repeat, in the same or another order."""
    pool = draw(st.lists(st.lists(st.sampled_from(["yes", "no", "maybe", NO_STANCE]),
                                  unique=True, min_size=1, max_size=4), min_size=1, max_size=4))
    table = {}
    for topic in range(draw(st.integers(min_value=1, max_value=12))):
        stances = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            stances = draw(st.permutations(stances))
        table[f"t{topic}"] = {sid: draw(st.integers(min_value=0, max_value=50)) for sid in stances}
    return table


def check_grouped_loads(work, table, rows):
    """Each grouped loader on ``rows``, the ``topic,stance,count`` cells of
    ``table`` in some order, gives the per-topic reference; ``table`` lists
    its topics, and each topic its stances, in order of first appearance."""
    # the same rows as regional votes: one space of every option, in file order
    options = list(dict.fromkeys(sid for _, sid, _ in rows if sid != NO_STANCE))
    rows = [f"{topic},{sid},{c}" for topic, sid, c in rows]
    poll = write(work, "p.csv", "topic,stance,count\n" + "".join(f"{r}\n" for r in rows))
    quad = write(work, "q.csv", "topic,stance,count,importance\n" + "".join(f"{r},5\n" for r in rows))
    expected = [(topic, _reference_exclusive_counts(stances)) for topic, stances in table.items()]
    quadrant = [(topic, counts) for topic, counts, _ in load_quadrant_topics(quad)]
    for loaded in (load_poll_topline(poll), quadrant):
        assert loaded == expected
        assert repr(loaded) == repr(expected)
    votes = write(work, "v.csv", "region,option,count\n" + "".join(f"{r}\n" for r in rows))
    space = StanceSpace.exclusive(options)
    regions = [RegionRow(region, StanceCounts.from_mapping(
        space, {sid: stances.get(sid, 0) for sid in options}, no_stance=stances.get(NO_STANCE, 0)))
        for region, stances in table.items()]
    expected_rows = (*regions, all_regions_row(regions))
    loaded_rows = load_vote_records(votes).rows
    assert loaded_rows == expected_rows
    assert repr(loaded_rows) == repr(expected_rows)


@settings(max_examples=200, deadline=None)
@given(stance_tables())
def test_shared_spaces_match_per_topic_reference(tmp_path_factory, table):
    rows = [(topic, sid, c) for topic, stances in table.items() for sid, c in stances.items()]
    check_grouped_loads(tmp_path_factory.mktemp("tables"), table, rows)


@settings(max_examples=200, deadline=None)
@given(stance_tables(), st.data())
def test_split_topics_match_per_topic_reference(tmp_path_factory, table, data):
    """The rows in a drawn order: a topic's rows may be split by another
    topic's, with its __none__ row on either side of a split, and the
    topics and their stances come out in order of first appearance."""
    rows = data.draw(st.permutations(
        [(topic, sid, c) for topic, stances in table.items() for sid, c in stances.items()]))
    first_seen = {}
    for topic, sid, c in rows:
        first_seen.setdefault(topic, {})[sid] = c
    check_grouped_loads(tmp_path_factory.mktemp("tables"), first_seen, rows)


# a topic split by another, and the row that comes back to it
SPLIT_TOPICS = {
    "explicit-repeated": ("t,s,3\nt,__none__,0\nu,s,4\nt,s,5", "t/s appears twice"),
    "zero-none-repeated": ("t,s,3\nt,__none__,0\nu,s,4\nt,__none__,5", "t/__none__ appears twice"),
    "none-repeated": ("t,__none__,2\nt,s,3\nu,s,4\nt,__none__,5", "t/__none__ appears twice"),
    "none-after-split": ("t,s,3\nu,s,4\nt,__none__,0\nt,r,1", None),
    "zero-explicit": ("t,s,0\nu,s,4\nt,__none__,0\nu,__none__,1", None),
}


# votes builds one space of every option, so only its duplicates match the
# per-topic reference
@pytest.mark.parametrize("loader, case", [
    *((loader, case) for loader in ("poll", "quadrant") for case in sorted(SPLIT_TOPICS)),
    *(("votes", case) for case in sorted(SPLIT_TOPICS) if SPLIT_TOPICS[case][1]),
])
def test_split_topic_is_reopened(tmp_path, loader, case):
    body, duplicate = SPLIT_TOPICS[case]
    load, header, tail = GROUPED_LOADERS[loader]
    path = write(tmp_path, "in.csv", header + "\n" + "".join(f"{r}{tail}\n" for r in body.split("\n")))
    if duplicate:
        with pytest.raises(DuplicateStanceRow, match=f"^{duplicate}$"):
            load(path)
        return
    first_seen = {}
    for row in body.split("\n"):
        topic, sid, c = row.split(",")
        first_seen.setdefault(topic, {})[sid] = int(c)
    loaded = grouped_counts(loader, path)
    assert loaded == [(t, _reference_exclusive_counts(s)) for t, s in first_seen.items()]


@pytest.mark.parametrize("loader", ["poll", "quadrant", "votes"])
def test_topics_split_on_every_row_close_at_most_twice(tmp_path, monkeypatch, loader):
    """A stance-major file, each row naming another topic than the row
    before: a reopened topic stays open, so each topic is closed once when
    first left and once when the file ends, not once per row.  Every topic
    lists every stance, so the vote table's one space is each topic's."""
    _, header, tail = GROUPED_LOADERS[loader]
    topics, stances = [f"t{i}" for i in range(30)], [f"s{j}" for j in range(20)]
    rows = "".join(f"{t},{s},{i + j}{tail}\n" for j, s in enumerate(stances)
                   for i, t in enumerate(topics))
    closes = []
    close = contention.ingest._exclusive_counts
    monkeypatch.setattr(contention.ingest, "_exclusive_counts",
                        lambda stances, spaces: closes.append(1) or close(stances, spaces))
    path = write(tmp_path, "in.csv", f"{header}\n{rows}")
    loaded = grouped_counts(loader, path)
    assert loaded == [(t, _reference_exclusive_counts({s: i + j for j, s in enumerate(stances)}))
                      for i, t in enumerate(topics)]
    assert len(closes) == 2 * len(topics)


# every grouped CSV loader: header, the row with the good stance, and what each
# row needs after its count to be complete
GROUPED_LOADERS = {
    "poll": (load_poll_topline, "topic,stance,count", ""),
    "quadrant": (load_quadrant_topics, "topic,stance,count,importance", ",5"),
    "votes": (load_vote_records, "region,option,count", ""),
}


def grouped_counts(loader, path):
    """A grouped loader's (topic or region, counts) pairs in file order; a
    vote table's ``__all__`` row is left out."""
    load = GROUPED_LOADERS[loader][0]
    if loader == "votes":
        return [(row.region, row.counts) for row in load(path).rows if row.region != ALL_REGIONS]
    return [(topic, counts) for topic, counts, *_ in load(path)]


BAD_ROWS = {
    "empty-key": ",a,1{tail}",
    "empty-stance": "t,,1{tail}",
    "short-row": "t,a",
    "repeated-pair": "t,a,1{tail}\nt,a,2{tail}",
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("loader", sorted(GROUPED_LOADERS))
def test_grouped_csv_row_rule(tmp_path, loader, bad):
    load, header, tail = GROUPED_LOADERS[loader]
    good = f"t,b,1{tail}"
    path = write(tmp_path, "in.csv", f"{header}\n{good}\n{BAD_ROWS[bad].format(tail=tail)}\n")
    with pytest.raises(MalformedRow):
        load(path)


@pytest.mark.parametrize("loader", sorted(GROUPED_LOADERS))
def test_grouped_rows_hold_each_stance_id_once(tmp_path, loader):
    # two groups list the same ids in two orders; the ids are longer than
    # one character, as CPython keeps one object per one-character string
    # whatever the reader does
    load, header, tail = GROUPED_LOADERS[loader]
    key, stance = header.split(",")[:2]
    rows = [("t1", "leave"), ("t1", "remain"), ("t2", "remain"), ("t2", "leave")]
    path = write(tmp_path, "in.csv",
                 "".join(f"{line}\n" for line in [header, *(f"{g},{s},1{tail}" for g, s in rows)]))
    received = []
    reader = _read_csv_rows(path, (key, stance))
    groups = _read_grouped(path, next(reader), reader, key, stance,
                           lambda group, sid, fields: received.append(sid) or 1)
    first, second = groups["t1"].space.ids, groups["t2"].space.ids
    assert first == ("leave", "remain") and second == ("remain", "leave")
    assert received == [sid for _, sid in rows]
    for sid in first:
        [held] = [other for other in second if other == sid]
        assert held is sid and all(parsed is sid for parsed in received if parsed == sid)
    if loader != "votes":  # every region of a vote table shares one space
        (_, a, *_), (_, b, *_) = load(path)
        assert a.space is not b.space and a.space.ids == b.space.ids[::-1]
        assert all(x is y for x, y in zip(a.space.ids, b.space.ids[::-1]))


# counts above 256, which CPython does not keep one object of; the percent
# layout's counts are computed, 50% of 2000 and 25% of 4000 both 1000
SHARED_COUNT_FILES = {
    "poll": (load_poll_topline, "topic,stance,count\nt1,a,1000\nt1,b,70000\nt2,x,70000\nt2,y,1000\n"),
    "percent": (load_poll_topline, "topic,stance,percent,total\nt1,a,50,2000\nt1,b,50,2000\n"
                                   "t2,x,25,4000\nt2,y,75,4000\n"),
    "quadrant": (load_quadrant_topics, "topic,stance,count,importance\nt1,a,1000,5\n"
                                       "t1,b,70000,5\nt2,x,70000,5\nt2,y,1000,5\n"),
    "votes": (load_vote_records, "region,option,count\nt1,a,1000\nt1,b,70000\n"
                                 "t2,a,70000\nt2,b,1000\n"),
}


@pytest.mark.parametrize("case", sorted(SHARED_COUNT_FILES))
def test_equal_counts_of_one_load_are_one_object(tmp_path, case):
    load, text = SHARED_COUNT_FILES[case]
    loaded = load(write(tmp_path, "in.csv", text))
    if case == "votes":
        (_, first), (_, second) = [(r.region, r.counts) for r in loaded.rows[:2]]
    else:
        (_, first, *_), (_, second, *_) = loaded
    pairs = [(a, b) for a in first.explicit for b in second.explicit if a == b]
    assert pairs and all(a is b for a, b in pairs)


def shared_memo_sizes(load, path):
    """Load ``path`` and return the size of ``_read_grouped``'s count memo,
    its local ``shared``, before each line of that function runs."""
    sizes = []

    def per_line(frame, event, arg):
        sizes.append(len(frame.f_locals.get("shared", ())))
        return per_line

    def per_call(frame, event, arg):
        return per_line if frame.f_code is _read_grouped.__code__ else None

    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        loaded = load(path)
    finally:
        sys.settrace(previous)
    return loaded, sizes


@pytest.mark.parametrize("loader", sorted(GROUPED_LOADERS))
def test_shared_count_memo_never_holds_more_than_its_cap(tmp_path, monkeypatch, loader):
    """With a cap of 8, a file of 300 distinct counts loads to the same
    counts, and the memo, emptied each time it is full, never holds more."""
    monkeypatch.setattr(contention.ingest, "_SHARED_COUNTS_CAP", 8)
    load, header, tail = GROUPED_LOADERS[loader]
    stances = [f"s{j}" for j in range(3)]
    table = {f"t{i}": {s: 1000 + 3 * i + j for j, s in enumerate(stances)} for i in range(100)}
    body = "".join(f"{t},{s},{c}{tail}\n" for t, row in table.items() for s, c in row.items())
    path = write(tmp_path, "in.csv", f"{header}\n{body}")
    _, sizes = shared_memo_sizes(load, path)
    assert max(sizes) == 8
    assert grouped_counts(loader, path) == [(t, _reference_exclusive_counts(row))
                                            for t, row in table.items()]


def test_shared_count_memo_is_emptied_when_full(tmp_path, monkeypatch):
    """Cap 4: t2's first 1001 is t1's object, the memo then fills with
    1004, so t2's second 1001 is a new one, still equal."""
    monkeypatch.setattr(contention.ingest, "_SHARED_COUNTS_CAP", 4)
    path = write(tmp_path, "in.csv", "topic,stance,count\nt1,a,1001\nt1,b,1002\nt1,c,1003\n"
                                     "t2,a,1001\nt2,b,1004\nt2,c,1001\n")
    [(_, first), (_, second)] = load_poll_topline(path)
    assert second.explicit == (1001, 1004, 1001)
    assert second.explicit[0] is first.explicit[0]
    assert second.explicit[2] is not first.explicit[0]


def dictreader_rows(path, required):
    """The row reader as it stood on ``csv.DictReader``, with a required
    column named twice rejected: the behaviour ``_read_csv_rows`` keeps."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MalformedRow(f"{path}: missing header row")
        missing = [col for col in required if col not in reader.fieldnames]
        if missing:
            raise MalformedRow(f"{path}: header lacks column(s) {missing}")
        repeated = [col for col in required if reader.fieldnames.count(col) > 1]
        if repeated:
            raise MalformedRow(f"{path}: header repeats column(s) {repeated}")
        for row in reader:
            if None in row.values():
                raise MalformedRow(f"{path}: short row {row}")
            yield row


def as_dicts(rows):
    """``_read_csv_rows``'s header and field lists as DictReader's rows."""
    header = next(rows)
    for fields in rows:
        row = dict(zip(header, fields))
        if len(fields) > len(header):
            row[None] = fields[len(header):]
        yield row


def rows_or_error(read):
    rows = []
    try:
        for row in read():
            rows.append(row)
    except (MalformedRow, csv.Error) as exc:
        return rows, type(exc).__name__, str(exc)
    return rows, None, None


@settings(max_examples=300)
@given(
    header=st.sampled_from(["", "a,b\n", "a,b,a\n", "b,a\r\n", "\na,b\n", '"a","b,c"\n']),
    body=st.text(st.sampled_from(["a", "b", "é", ",", '"', " ", "\n", "\r"]), max_size=30),
)
def test_csv_rows_match_dictreader(tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(header + body, encoding="utf-8", newline="")
    assert rows_or_error(lambda: as_dicts(_read_csv_rows(path, ("a",)))) == \
        rows_or_error(lambda: dictreader_rows(path, ("a",)))


class TestCsvRows:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\n\nt,a,3\n\n\nt,b,1\n\n")
        [(topic, counts)] = load_poll_topline(path)
        assert topic == "t" and counts.counts == (0, 3, 1)

    def test_long_row_keeps_extra_fields_under_none(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\nt,a,3,x,y\nt,b,1\n")
        assert list(_read_csv_rows(path, ("topic",))) == [
            ["topic", "stance", "count"], ["t", "a", "3", "x", "y"], ["t", "b", "1"],
        ]
        assert load_poll_topline(path)[0][1].counts == (0, 3, 1)
        bad = write(tmp_path, "bad.csv", "topic,stance,count\nt,a,three,x\n")
        with pytest.raises(MalformedRow, match=(
            r"count 'three' is not an integer in row "
            r"\{'topic': 't', 'stance': 'a', 'count': 'three', None: \['x'\]\}$"
        )):
            load_poll_topline(bad)

    def test_short_row_message_shows_missing_fields_as_none(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\nt,a,1\nt,b\n")
        with pytest.raises(MalformedRow) as info:
            load_poll_topline(path)
        assert str(info.value) == (
            f"{path}: short row {{'topic': 't', 'stance': 'b', 'count': None}}"
        )

    def test_field_over_the_size_limit_is_malformed(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\nt,a,1\nt,b," + "9" * 200_000 + "\n")
        with pytest.raises(MalformedRow, match=rf"^{re.escape(str(path))}, line 3: field larger than field limit"):
            load_poll_topline(path)


# every CSV loader: a valid file, for the header rules below
CSV_LOADERS = {
    "poll": (load_poll_topline, "topic,stance,count\nt,a,5\nt,b,3\n"),
    "poll-percent": (load_poll_topline, "topic,stance,percent,total\nt,a,52.5,200\nt,b,47.5,200\n"),
    "votes": (load_vote_records, "region,option,count\nr,a,5\nr,b,3\nr,__eligible__,9\n"),
    "quadrant": (load_quadrant_topics, "topic,stance,count,importance\nt,a,5,7\nt,b,3,7\n"),
    "totals": (load_daily_totals, "date,total\n2016-06-23,5\n2016-06-24,3\n"),
}


def loaded(load, path):
    """What ``load`` reads from ``path``; of a vote table, its rows (its name
    is the file stem)."""
    result = load(path)
    return getattr(result, "rows", result)


def repeat_column(text, column):
    """``text`` with its ``column``-th cell written twice on every line."""
    return "".join(
        ",".join(cells[:column + 1] + cells[column:]) + "\n"
        for cells in (line.split(",") for line in text.splitlines())
    )


class TestCsvHeader:
    @pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
    def test_byte_order_mark_is_dropped(self, tmp_path, loader):
        load, text = CSV_LOADERS[loader]
        plain = write(tmp_path, "plain.csv", text)
        marked = tmp_path / "plain-bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert loaded(load, marked) == loaded(load, plain)

    @pytest.mark.parametrize("loader, column, name", [
        ("poll", 0, "topic"), ("poll", 1, "stance"), ("poll", 2, "count"),
        ("poll-percent", 2, "percent"), ("poll-percent", 3, "total"),
        ("votes", 0, "region"), ("votes", 2, "count"),
        ("quadrant", 2, "count"), ("quadrant", 3, "importance"),
        ("totals", 0, "date"), ("totals", 1, "total"),
    ])
    def test_repeated_column_the_loader_reads_is_malformed(self, tmp_path, loader, column, name):
        load, text = CSV_LOADERS[loader]
        path = write(tmp_path, "in.csv", repeat_column(text, column))
        with pytest.raises(MalformedRow) as info:
            load(path)
        assert str(info.value) == f"{path}: header repeats column(s) ['{name}']"

    @pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
    def test_repeated_column_the_loader_ignores_stays_legal(self, tmp_path, loader):
        load, text = CSV_LOADERS[loader]
        noted = "".join(f"{line},note,note\n" for line in text.splitlines())
        assert loaded(load, write(tmp_path, "noted.csv", noted)) == \
            loaded(load, write(tmp_path, "plain.csv", text))


def percent_texts():
    """Percent cells in every form ``Fraction`` reads."""
    digits = st.integers(min_value=0, max_value=10**6)
    decimals = st.builds(lambda whole, places, frac: f"{whole}.{frac % 10**places:0{places}d}"
                         if places else str(whole),
                         digits, st.integers(min_value=0, max_value=6), digits)
    exponents = st.builds(lambda m, e: f"{m}e{e}", st.integers(0, 10**4), st.integers(-6, 6))
    ratios = st.builds(lambda a, b: f"{a}/{b}", digits, st.integers(min_value=1, max_value=10**6))
    return st.one_of(decimals, exponents, ratios)


@settings(max_examples=500)
@given(percent=percent_texts(), total=st.integers(min_value=0, max_value=10**12))
def test_percent_count_rounds_like_fraction_round(percent, total):
    exact = Fraction(percent)
    assert _percent_count(exact, total) == round(exact * total / 100)


@settings(max_examples=300)
@given(quotient=st.integers(min_value=0, max_value=10**9),
       total=st.integers(min_value=1, max_value=10**12))
def test_percent_count_exact_halves_go_to_even(quotient, total):
    # percent * total / 100 == quotient + 1/2 exactly
    percent = Fraction(f"{(2 * quotient + 1) * 50}/{total}")
    count = _percent_count(percent, total)
    assert count == round(percent * total / 100)
    assert count == quotient + quotient % 2

