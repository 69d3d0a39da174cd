"""Ingestion: poll/vote CSV loaders, hashtag tagging, daily tweet bucketing."""

import csv
import json
import random
import re
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.errors import (
    AmbiguousStance,
    DuplicateStanceRow,
    EligibleLessThanVotes,
    EmptyInput,
    ErrorBudgetExceeded,
    MalformedRow,
    MissingEligible,
    MissingTotal,
    NegativeCount,
    TotalLessThanStanceCounts,
    UnparseableTimestamp,
)
from contention.ingest import (
    ALL_REGIONS,
    RegionRow,
    all_regions_row,
    _read_csv_rows,
    StanceLexicon,
    TweetRecord,
    build_daily_counts,
    ingest_tweets,
    iter_tweet_stream,
    load_daily_totals,
    load_poll_topline,
    load_quadrant_topics,
    load_vote_records,
    normalize_hashtag,
    parse_utc_timestamp,
    tag_tweet_stance,
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


@pytest.fixture
def dress_lexicon(tmp_path):
    path = write(tmp_path, "dress.json", json.dumps(DRESS_LEXICON))
    return StanceLexicon.from_json(path)


def tweet(id_, ts, user, hashtags):
    return TweetRecord(id=id_, ts=parse_utc_timestamp(ts), user=user,
                       hashtags=tuple(normalize_hashtag(t) for t in hashtags))


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

    def test_percent_missing_total(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,percent\nt,a,50\n")
        with pytest.raises((MissingTotal, MalformedRow)):
            load_poll_topline(path)

    def test_percent_blank_total_cell(self, tmp_path):
        path = write(tmp_path, "poll.csv", "topic,stance,percent,total\nt,a,50,\n")
        with pytest.raises(MissingTotal):
            load_poll_topline(path)

    def test_percent_totals_must_agree_within_a_topic(self, tmp_path):
        path = write(tmp_path, "poll.csv",
                     "topic,stance,percent,total\n"
                     "a,x,50,200\na,y,50,200\n"
                     "b,x,50,100\nb,y,50,101\n")
        with pytest.raises(MalformedRow, match="^topic 'b' carries conflicting respondent totals$"):
            load_poll_topline(path)

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
        result = contention_exclusive(table.row("uk").counts)
        assert round(result.normalized, 2) == 1.00

    def test_rejected_ballots_become_no_stance(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr,a,10\nr,b,10\nr,__rejected__,5\n")
        table = load_vote_records(path)
        assert table.row("r").counts.counts == (5, 10, 10)

    def test_none_ballots_become_no_stance(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\nr,a,10\nr,b,10\nr,__none__,7\n")
        table = load_vote_records(path)
        assert table.row("r").counts.no_stance == 7

    def test_eligible_population_mode(self, tmp_path):
        path = write(tmp_path, "votes.csv",
                     "region,option,count\n"
                     "r,a,30\nr,b,20\nr,__eligible__,100\n")
        table = load_vote_records(path, "eligible")
        assert table.row("r").counts.counts == (50, 30, 20)
        assert table.row("r").eligible == 100

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
        assert table.row(ALL_REGIONS).counts.counts == (0, 15, 21)

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
        assert table.row("r2").counts.counts == (0, 9, 0)


class TestLexiconAndTagging:
    def test_from_json(self, dress_lexicon):
        assert dress_lexicon.topic == "dress"
        assert dress_lexicon.space().k == 2

    def test_duplicate_hashtag_across_stances(self, tmp_path):
        bad = {
            "topic": "t",
            "stances": [
                {"id": "a", "label": "a", "hashtags": ["same"]},
                {"id": "b", "label": "b", "hashtags": ["same"]},
            ],
        }
        path = write(tmp_path, "bad.json", json.dumps(bad))
        with pytest.raises(MalformedRow, match=f"^lexicon {re.escape(str(path))}: hashtag #same"):
            StanceLexicon.from_json(path)

    @pytest.mark.parametrize("stances", [
        [{"id": "a", "hashtags": "vote"}, {"id": "b", "hashtags": ["no"]}],
        [{"id": "a", "hashtags": [5]}, {"id": "b", "hashtags": ["no"]}],
        [{"id": "", "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}],
        [{"id": "__none__", "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}],
        [{"id": "a", "hashtags": ["yes"]}, {"id": "a", "hashtags": ["no"]}],
        [{"id": None, "hashtags": ["yes"]}, {"id": "b", "hashtags": ["no"]}],
    ], ids=["hashtags-string", "hashtags-number", "empty-id", "reserved-id", "duplicate-id",
            "null-id"])
    def test_bad_lexicon_is_malformed_at_load(self, tmp_path, stances):
        path = write(tmp_path, "bad.json", json.dumps({"topic": "t", "stances": stances}))
        with pytest.raises(MalformedRow, match=f"^lexicon {re.escape(str(path))}: "):
            StanceLexicon.from_json(path)

    def test_unique_stance_match(self, dress_lexicon):
        record = tweet("1", "2015-02-26T12:00:00Z", "u1", ["WhiteAndGold", "ootd"])
        assert tag_tweet_stance(record, dress_lexicon) == "white-and-gold"

    def test_no_match_is_no_stance(self, dress_lexicon):
        record = tweet("2", "2015-02-26T12:00:00Z", "u1", ["nofilter"])
        assert tag_tweet_stance(record, dress_lexicon) == NO_STANCE

    def test_cross_stance_match_is_no_stance(self, dress_lexicon):
        record = tweet("3", "2015-02-26T12:00:00Z", "u1", ["blackandblue", "whiteandgold"])
        assert tag_tweet_stance(record, dress_lexicon) == NO_STANCE

    def test_cross_stance_match_error_mode(self, dress_lexicon):
        record = tweet("4", "2015-02-26T12:00:00Z", "u1", ["blackandblue", "whiteandgold"])
        with pytest.raises(AmbiguousStance):
            tag_tweet_stance(record, dress_lexicon, ambiguous="error")

    def test_unknown_ambiguous_mode_rejected(self, dress_lexicon):
        record = tweet("4", "2015-02-26T12:00:00Z", "u1", ["blackandblue", "whiteandgold"])
        with pytest.raises(ValueError, match="^ambiguous must be 'no-stance' or 'error', got 'eror'$"):
            tag_tweet_stance(record, dress_lexicon, ambiguous="eror")

    def test_multilingual_and_unicode_folding(self, dress_lexicon):
        record = tweet("5", "2015-02-26T12:00:00Z", "u1", ["NegroYAzul"])
        assert tag_tweet_stance(record, dress_lexicon) == "black-and-blue"

    def test_determinism(self, dress_lexicon):
        record = tweet("6", "2015-02-26T12:00:00Z", "u1", ["whiteandgold"])
        assert len({tag_tweet_stance(record, dress_lexicon) for _ in range(20)}) == 1

    def test_tag_index_is_built_once_and_read_only(self, dress_lexicon):
        index = dress_lexicon.tag_index()
        assert index is dress_lexicon.tag_index()
        assert index["negroyazul"] == "black-and-blue"
        with pytest.raises(TypeError):
            index["negroyazul"] = "white-and-gold"


class TestTimestamps:
    def test_z_suffix(self):
        ts = parse_utc_timestamp("2016-06-23T10:00:00Z")
        assert ts == datetime(2016, 6, 23, 10, tzinfo=timezone.utc)

    def test_offset_normalized_to_utc(self):
        ts = parse_utc_timestamp("2016-06-23T23:30:00-05:00")
        assert ts.date() == date(2016, 6, 24)  # crosses the UTC day boundary

    def test_naive_treated_as_utc(self):
        ts = parse_utc_timestamp("2016-06-23T10:00:00")
        assert ts.tzinfo == timezone.utc

    def test_garbage_rejected(self):
        with pytest.raises(UnparseableTimestamp):
            parse_utc_timestamp("yesterday-ish")

    @pytest.mark.parametrize("text", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
    def test_shift_out_of_range_rejected(self, text):
        with pytest.raises(UnparseableTimestamp):
            parse_utc_timestamp(text)

    def test_missing_field_is_malformed(self):
        with pytest.raises(MalformedRow):
            TweetRecord.from_json_obj({"id": "1", "ts": "2016-01-01T00:00:00Z"})


class TestBuildDailyCounts:
    def test_worked_example(self, dress_lexicon):
        records = (
            [tweet(str(i), "2015-02-26T10:00:00Z", f"u{i}", ["whiteandgold"]) for i in range(30)]
            + [tweet(str(100 + i), "2015-02-26T11:00:00Z", f"v{i}", ["blackandblue"]) for i in range(20)]
        )
        totals = {date(2015, 2, 26): 1000}
        series = build_daily_counts(records, dress_lexicon, totals)
        [day] = series.days
        assert day.counts.counts == (950, 30, 20)
        assert day.has_total
        assert sum(day.counts.counts) == 1000  # partition invariant

    def test_zero_tagged_day(self, dress_lexicon):
        totals = {date(2015, 2, 26): 500}
        series = build_daily_counts([], dress_lexicon, totals)
        [day] = series.days
        assert day.counts.counts == (500, 0, 0)
        assert contention_exclusive(day.counts).raw == 0.0

    def test_total_less_than_tagged(self, dress_lexicon):
        records = [tweet(str(i), "2015-02-26T10:00:00Z", f"u{i}", ["whiteandgold"])
                   for i in range(30)]
        with pytest.raises(TotalLessThanStanceCounts):
            build_daily_counts(records, dress_lexicon, {date(2015, 2, 26): 10})

    def test_day_without_total_keeps_stanced_variant(self, dress_lexicon):
        records = [tweet("1", "2015-02-26T10:00:00Z", "u1", ["whiteandgold"])]
        series = build_daily_counts(records, dress_lexicon, totals=None)
        [day] = series.days
        assert not day.has_total
        assert day.counts.counts == (0, 1, 0)

    def test_order_independence(self, dress_lexicon):
        records = [
            tweet(str(i), f"2015-02-{26 + (i % 2):02d}T10:00:00Z", f"u{i}",
                  ["whiteandgold"] if i % 3 else ["blackandblue"])
            for i in range(60)
        ]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        a = build_daily_counts(records, dress_lexicon)
        b = build_daily_counts(shuffled, dress_lexicon)
        assert a == b

    def test_by_user_counts_distinct_users(self, dress_lexicon):
        records = [
            tweet("1", "2015-02-26T10:00:00Z", "alice", ["whiteandgold"]),
            tweet("2", "2015-02-26T11:00:00Z", "alice", ["whiteandgold"]),
            tweet("3", "2015-02-26T12:00:00Z", "bob", ["blackandblue"]),
        ]
        series = build_daily_counts(records, dress_lexicon, by_user=True)
        assert series.days[0].counts.explicit == (1, 1)

    def test_by_user_conflicting_user_excluded(self, dress_lexicon):
        records = [
            tweet("1", "2015-02-26T10:00:00Z", "alice", ["whiteandgold"]),
            tweet("2", "2015-02-27T10:00:00Z", "alice", ["blackandblue"]),
            tweet("3", "2015-02-26T12:00:00Z", "bob", ["blackandblue"]),
        ]
        series = build_daily_counts(records, dress_lexicon, by_user=True)
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
            with pytest.raises(MalformedRow):
                TweetRecord.from_json_obj(obj)
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


@settings(max_examples=200, deadline=None)
@given(stance_tables())
def test_shared_spaces_match_per_topic_reference(tmp_path_factory, table):
    work = tmp_path_factory.mktemp("tables")
    rows = [f"{topic},{sid},{c}" for topic, stances in table.items() for sid, c in stances.items()]
    poll = write(work, "p.csv", "topic,stance,count\n" + "".join(f"{r}\n" for r in rows))
    quad = write(work, "q.csv", "topic,stance,count,importance\n" + "".join(f"{r},5\n" for r in rows))
    expected = [(topic, _reference_exclusive_counts(stances)) for topic, stances in table.items()]
    quadrant = [(topic, counts) for topic, counts, _ in load_quadrant_topics(quad)]
    for loaded in (load_poll_topline(poll), quadrant):
        assert loaded == expected
        assert repr(loaded) == repr(expected)
    # the same rows as regional votes: one space of every option, in file order
    votes = write(work, "v.csv", "region,option,count\n" + "".join(f"{r}\n" for r in rows))
    options = list(dict.fromkeys(sid for stances in table.values() for sid in stances if sid != NO_STANCE))
    space = StanceSpace.exclusive(options)
    regions = [RegionRow(region, StanceCounts.from_mapping(
        space, {sid: stances.get(sid, 0) for sid in options}, no_stance=stances.get(NO_STANCE, 0)))
        for region, stances in table.items()]
    expected_rows = (*regions, all_regions_row(regions))
    loaded_rows = load_vote_records(votes).rows
    assert loaded_rows == expected_rows
    assert repr(loaded_rows) == repr(expected_rows)


# every grouped CSV loader: header, the row with the good stance, and what each
# row needs after its count to be complete
GROUPED_LOADERS = {
    "poll": (load_poll_topline, "topic,stance,count", ""),
    "quadrant": (load_quadrant_topics, "topic,stance,count,importance", ",5"),
    "votes": (load_vote_records, "region,option,count", ""),
}
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


def dictreader_rows(path, required):
    """The row reader as it stood on ``csv.DictReader``: the behaviour
    ``_read_csv_rows`` keeps."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MalformedRow(f"{path}: missing header row")
        missing = [col for col in required if col not in reader.fieldnames]
        if missing:
            raise MalformedRow(f"{path}: header lacks column(s) {missing}")
        for row in reader:
            if None in row.values():
                raise MalformedRow(f"{path}: short row {row}")
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
    assert rows_or_error(lambda: _read_csv_rows(path, ("a",))) == \
        rows_or_error(lambda: dictreader_rows(path, ("a",)))


class TestCsvRows:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\n\nt,a,3\n\n\nt,b,1\n\n")
        [(topic, counts)] = load_poll_topline(path)
        assert topic == "t" and counts.counts == (0, 3, 1)

    def test_long_row_keeps_extra_fields_under_none(self, tmp_path):
        path = write(tmp_path, "p.csv", "topic,stance,count\nt,a,3,x,y\nt,b,1\n")
        assert list(_read_csv_rows(path, ("topic",))) == [
            {"topic": "t", "stance": "a", "count": "3", None: ["x", "y"]},
            {"topic": "t", "stance": "b", "count": "1"},
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
