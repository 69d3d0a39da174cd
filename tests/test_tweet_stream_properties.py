"""Tweet ingest against the per-record reference path, on generated shards.

The reference, ``tests/reference.py``, decodes each line with
``json.loads``, checks its fields, finds its UTC day and tags it with code
of its own.  ``ingest_tweets`` must agree with it on every series, every
stream counter and every error, whatever the shard split and mode.  A line
that is not valid UTF-8 is one malformed line to both; a valid line keeps
its result, JSON ``\\udcxx`` escapes included.
"""

import json
import tempfile
import unicodedata
from datetime import date, datetime, timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contention.errors import ErrorBudgetExceeded, TotalLessThanStanceCounts
from contention.ingest import StanceLexicon, ingest_tweets, normalize_hashtag
from contention.model import StanceSpace
from reference import OverBudget, TotalBelowTagged, reference_ingest

TAGS = {
    "leave": ["voteleave", "Straße"],
    "remain": ["strongerin", "café"],
    # the tags true, null and 0 read as "true", "none" and "0"
    "undecided": ["ΣΊΣΥΦΟΣ", "true", "none", "0"],
}
LEXICON = StanceLexicon(
    "referendum",
    StanceSpace.exclusive(list(TAGS)),
    {normalize_hashtag(tag): sid for sid, tags in TAGS.items() for tag in tags},
)

# Spellings that normalize onto a lexicon tag (case, '#', sharp s, combining
# accents, final sigma) next to ones that do not.
TAG_SPELLINGS = [
    "voteleave", "VoteLeave", "#voteleave", "##VOTELEAVE", "straße", "STRASSE", "#Strasse",
    "strongerin", "#StrongerIn", "café", "cafe\u0301", "CAFE\u0301", "#Café", "cafe",
    "σίσυφος", "ΣΊΣΥΦΟΣ", "nofilter", "#", "", "ß", "##", "###", "STRONGERIN", "#NOFILTER",
]
DAYS = [date(2016, 6, 21) + timedelta(days=i) for i in range(3)]


def product(paths, totals, by_user, error_budget):
    """``ingest_tweets``'s result in the reference's plain form, or the name
    of the failure it raised."""
    try:
        series, stats = ingest_tweets(paths, LEXICON, totals, by_user=by_user,
                                      error_budget=error_budget)
    except ErrorBudgetExceeded:
        return "over budget"
    except TotalLessThanStanceCounts:
        return "total below tagged"
    assert all(day.counts.space is LEXICON.space for day in series.days)
    days = tuple((day.date, day.counts.counts, day.has_total) for day in series.days)
    return (series.topic, days), (stats.lines, stats.parsed, stats.parse_errors, stats.tagged)


def reference(paths, totals, by_user, error_budget):
    try:
        return reference_ingest(paths, LEXICON, totals, by_user, error_budget)
    except OverBudget:
        return "over budget"
    except TotalBelowTagged:
        return "total below tagged"


@st.composite
def timestamps(draw):
    instant = datetime(2016, 6, 20) + timedelta(seconds=draw(st.integers(0, 5 * 86400)))
    form = draw(st.sampled_from(
        ["Z", "z", "+00:00", "-00:00", "naive", "offset", "range-end", "garbage"]))
    if form == "range-end":
        # within a few hours of either end of the datetime range, where a
        # nonzero offset can shift the instant out of it
        gap = timedelta(seconds=draw(st.integers(0, 3 * 3600)))
        instant = draw(st.sampled_from([datetime.min + gap, datetime.max.replace(microsecond=0) - gap]))
    text = instant.isoformat()
    if form in ("offset", "range-end"):
        minutes = draw(st.integers(-14 * 60 + 1, 14 * 60 - 1))
        sign = "-" if minutes < 0 else "+"
        text += f"{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    elif form == "garbage":
        text = draw(st.sampled_from(["yesterday", "", "2016-13-40T00:00:00Z", text + "+25:00"]))
    elif form not in ("naive", "range-end"):
        text += form
    return draw(st.sampled_from(["", " "])) + text


# a tag that is not a string counts as its str()
odd_tags = (st.sampled_from([True, False, None, 0, 1.5]) | st.integers() | st.floats()
            | st.lists(st.sampled_from(TAG_SPELLINGS), max_size=2)
            | st.dictionaries(st.sampled_from(TAG_SPELLINGS), st.integers(), max_size=1))
hashtags = st.lists(st.sampled_from(TAG_SPELLINGS) | st.text(max_size=6) | odd_tags, max_size=4)
users = st.sampled_from(["ann", "bob", "cy", "dee"]) | st.text(max_size=3)


@st.composite
def tweet_objects(draw):
    obj = {
        "id": draw(st.text(max_size=3) | st.integers()),
        "ts": draw(timestamps()),
        "user": draw(users),
        "hashtags": draw(hashtags | st.sampled_from(["voteleave", {"voteleave": 1}, 5, None])),
    }
    for key in draw(st.lists(st.sampled_from(list(obj)), max_size=1)):
        del obj[key]
    return obj


# bytes that are not valid UTF-8 wherever they land: a lone continuation
# byte, bytes UTF-8 never uses, an encoded surrogate, a cut-off sequence
BAD_BYTES = [b"\x80", b"\xff\xfe", b"\xed\xb2\x80", b"\xc3", b"\xe2\x82"]


@st.composite
def lines(draw):
    """One shard line as bytes."""
    kind = draw(st.sampled_from(["tweet"] * 6 + ["blank", "odd", "bad-bytes", "escapes"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t", "\x0c", "\u2003", " \x0c "])).encode()
    if kind == "odd":
        return draw(st.sampled_from(["{broken", "[]", "5", "null", '"tweet"', "{}"])).encode()
    obj = draw(tweet_objects())
    if kind == "escapes":
        # lone surrogates reach the text only as ASCII \udcxx escapes
        obj["user"] = draw(st.sampled_from(["\udc80", "\udcff", "u\udcfe"]))
        return json.dumps(obj).encode()
    if kind == "bad-bytes":
        obj["user"] = "@"
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    before = draw(st.sampled_from(["", " ", "\t", "\ufeff", "\x0c"]))
    after = draw(st.sampled_from(["", " ", "\t ", " x", "{}", "\x0c", "\u2003"]))
    line = (before + text + after).encode()
    if kind == "bad-bytes":
        # inside a JSON string, where the decoder alone would accept the
        # escaped byte, or anywhere in the line
        in_string = line.index(b'"@"') + 1
        at = draw(st.just(in_string) | st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(BAD_BYTES)) + line[at:]
    return line


shard_sets = st.lists(st.lists(lines(), max_size=12), min_size=1, max_size=4)
totals_maps = st.none() | st.dictionaries(st.sampled_from(DAYS), st.integers(0, 40))


# a tweet whose hashtags hit two stances, which stays untagged, and one that
# lacks its id, which is malformed though the stream never reads the id
AMBIGUOUS = json.dumps({"id": "1", "ts": "2016-06-21T10:00:00Z", "user": "ann",
                        "hashtags": ["voteleave", "#StrongerIn"]}).encode()
NO_ID = json.dumps({"ts": "2016-06-21T11:00:00Z", "user": "bob", "hashtags": ["voteleave"]}).encode()


def tweet(user, ts, *tags):
    return json.dumps({"id": "1", "ts": ts, "user": user, "hashtags": list(tags)}).encode()


# --by-user across shards: ann holds one stance on two days, bob's two
# stances sit in different shards, and cy's second tweet is ambiguous,
# which leaves cy counted under the first
SAME_STANCE_TWO_DAYS = [[tweet("ann", "2016-06-21T10:00:00Z", "voteleave")],
                        [tweet("ann", "2016-06-22T10:00:00Z", "#VoteLeave")]]
CONFLICT_ACROSS_SHARDS = [[tweet("bob", "2016-06-21T10:00:00Z", "voteleave"),
                           tweet("ann", "2016-06-21T11:00:00Z", "strongerin")],
                          [tweet("bob", "2016-06-22T10:00:00Z", "strongerin")]]
AMBIGUOUS_SECOND = [[tweet("cy", "2016-06-21T10:00:00Z", "café"),
                     tweet("cy", "2016-06-22T10:00:00Z", "voteleave", "strongerin")]]


@settings(deadline=None, max_examples=150)
@example(shards=[[AMBIGUOUS, NO_ID]], by_user=False, totals=None, newline="\n",
         error_budget=1.0)
@example(shards=SAME_STANCE_TWO_DAYS, by_user=True, totals=None, newline="\n", error_budget=0.0)
@example(shards=CONFLICT_ACROSS_SHARDS, by_user=True, totals=None, newline="\n", error_budget=0.0)
@example(shards=AMBIGUOUS_SECOND, by_user=True, totals=None, newline="\n", error_budget=0.0)
@given(
    shards=shard_sets,
    by_user=st.booleans(),
    totals=totals_maps,
    newline=st.sampled_from(["\n", "\r\n"]),
    error_budget=st.sampled_from([0.0, 0.2, 1.0]),
)
def test_ingest_matches_reference_path(shards, by_user, totals, newline, error_budget):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, shard in enumerate(shards):
            path = Path(tmp) / f"shard{i}.jsonl"
            path.write_bytes(b"".join(line + newline.encode() for line in shard))
            paths.append(path)
        expected = reference(paths, totals, by_user, error_budget)
        got = product(paths, totals, by_user, error_budget)
    assert got == expected


def nfc(text):
    return unicodedata.normalize("NFC", text)


# letters and combining marks, where case folding can undo NFC
tag_texts = st.text() | st.text(st.characters(categories=("L", "M")), max_size=4)


@given(tag_texts)
def test_normalize_hashtag_matches_its_definition(tag):
    assert normalize_hashtag(tag) == nfc(nfc(tag.lstrip("#")).casefold())


@example("\u1f8c\u0301")
@given(tag_texts)
def test_normalize_hashtag_is_idempotent(tag):
    once = normalize_hashtag(tag)
    assert normalize_hashtag(once) == once
