"""Readers for explicit-stance datasets and implicit-stance tweet streams.

Explicit sources (poll toplines, regional vote records) arrive as CSV and
become StanceCounts directly.  Tweets arrive as JSON-lines and get their
stance from an explicit hashtag lexicon: a tweet is tagged only when its
hashtags hit exactly one stance's list, so precision beats recall, and
everything untagged lands in the no-stance group.

File schemas (UTF-8, RFC-4180 quoting):

- poll topline:   header ``topic,stance,count`` or ``topic,stance,percent,total``;
  stance literal ``__none__`` is the no-stance row.
- vote records:   header ``region,option,count``; option literals
  ``__eligible__`` (eligible population sidecar), ``__rejected__``
  (rejected ballots) and ``__none__`` (ballots counted as no stance).
- daily totals:   header ``date,total`` with ``YYYY-MM-DD`` dates.
- tweet stream:   one JSON object per line: ``id`` (str), ``ts`` (ISO-8601
  with offset; normalized to UTC), ``user`` (str), ``hashtags`` (a JSON
  array of strings; a leading '#' is dropped).  Any other ``hashtags``
  value makes the line malformed.
- stance lexicon: JSON ``{topic, stances: [{id, label, hashtags: [...]}]}``.
- quadrant topics: header ``topic,stance,count,importance``.

Poll, vote and quadrant rows are grouped by topic (region) and stance
(option); a row with a missing field, an empty key or stance, or a repeated
(key, stance) pair is malformed.  Each loader builds one StanceSpace per
distinct ordered list of explicit stances and shares it among the topics
(regions) that list them.
"""

from __future__ import annotations

import csv
import json
import math
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
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
from .model import NO_STANCE, StanceCounts, StanceSpace

ELIGIBLE = "__eligible__"
REJECTED = "__rejected__"
ALL_REGIONS = "__all__"

V = TypeVar("V")


def normalize_hashtag(tag: str) -> str:
    """Canonical hashtag form: NFC-normalized, case-folded, no leading '#'."""
    tag = tag.lstrip("#")
    if tag.isascii():
        # NFC leaves ASCII text unchanged, and casefold() equals lower() on it
        return tag.lower()
    return unicodedata.normalize("NFC", tag).casefold()


# -- stance lexicons and tweets ------------------------------------------------

@dataclass(frozen=True)
class LexiconStance:
    id: str
    label: str
    hashtags: frozenset[str]


@dataclass(frozen=True)
class StanceLexicon:
    """Per-stance hashtag lists for one topic; each hashtag maps to one stance.

    The stance ids are checked once, here, by building the lexicon's one
    exclusive StanceSpace; a bad id or a hashtag under two stances raises
    ValueError, which ``from_json`` reports as a MalformedRow."""

    topic: str
    stances: tuple[LexiconStance, ...]
    _index: Mapping[str, str] = field(init=False, repr=False, compare=False)
    _space: StanceSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        space = StanceSpace.exclusive(
            [s.id for s in self.stances], {s.id: s.label for s in self.stances}
        )
        object.__setattr__(self, "_space", space)
        seen: dict[str, str] = {}
        for stance in self.stances:
            for tag in stance.hashtags:
                if tag in seen and seen[tag] != stance.id:
                    raise ValueError(
                        f"hashtag #{tag} appears under both {seen[tag]!r} and {stance.id!r}"
                    )
                seen[tag] = stance.id
        object.__setattr__(self, "_index", MappingProxyType(seen))

    @classmethod
    def from_json(cls, path: str | Path) -> StanceLexicon:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedRow(f"cannot read lexicon {path}: {exc}") from exc
        try:
            stances = []
            for entry in doc["stances"]:
                sid, tags = entry["id"], entry["hashtags"]
                if not isinstance(sid, str):
                    raise TypeError(f"stance id must be a JSON string, got {sid!r}")
                if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                    raise TypeError(f"hashtags must be a JSON array of strings, got {tags!r}")
                label = str(entry.get("label") or sid)
                stances.append(LexiconStance(sid, label, frozenset(map(normalize_hashtag, tags))))
            return cls(str(doc["topic"]), tuple(stances))
        except KeyError as exc:
            raise MalformedRow(f"lexicon {path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise MalformedRow(f"lexicon {path}: {exc}") from exc

    def space(self) -> StanceSpace:
        return self._space

    def tag_index(self) -> Mapping[str, str]:
        """Read-only map from normalized hashtag to stance id."""
        return self._index


@dataclass(frozen=True)
class TweetRecord:
    """One tweet: id, UTC instant, author, normalized hashtags."""

    id: str
    ts: datetime
    user: str
    hashtags: tuple[str, ...]

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> TweetRecord:
        return cls(*_tweet_fields(obj))


def _tweet_fields(obj: Mapping) -> tuple[str, datetime, str, tuple[str, ...]]:
    """Checked ``(id, UTC instant, user, normalized hashtags)`` of one decoded
    tweet; raises MalformedRow or UnparseableTimestamp."""
    try:
        raw_tags = obj["hashtags"]
        id_, ts, user = str(obj["id"]), parse_utc_timestamp(str(obj["ts"])), str(obj["user"])
    except (KeyError, TypeError) as exc:
        raise MalformedRow(f"tweet record missing field: {exc}") from exc
    if not isinstance(raw_tags, list):
        raise MalformedRow(f"hashtags must be a JSON array, got {type(raw_tags).__name__}")
    return id_, ts, user, tuple([normalize_hashtag(str(t)) for t in raw_tags])


def parse_utc_timestamp(text: str) -> datetime:
    """ISO-8601 instant -> aware UTC datetime ('Z' accepted, naive = UTC)."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise UnparseableTimestamp(f"bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:
        raise UnparseableTimestamp(f"timestamp {text!r} falls outside the UTC range") from exc


def tag_tweet_stance(
    tweet: TweetRecord,
    lexicon: StanceLexicon,
    *,
    ambiguous: str = "no-stance",
) -> str:
    """Stance id for a tweet, or ``__none__``.

    A stance is assigned only when the tweet's hashtags intersect exactly
    one stance's list.  Zero matches is no-stance; matches across two or
    more stances are ambiguous and default to no-stance (``ambiguous=
    "error"`` raises instead, for pipelines that want to audit them).
    """
    if ambiguous not in ("no-stance", "error"):
        raise ValueError(f"ambiguous must be 'no-stance' or 'error', got {ambiguous!r}")
    index = lexicon.tag_index()
    stance = _stance_for(tweet.hashtags, index)
    if stance is not None:
        return stance
    if ambiguous == "error":
        matched = sorted({index[t] for t in tweet.hashtags if t in index})
        if len(matched) > 1:
            raise AmbiguousStance(f"tweet {tweet.id} matches stances {matched}")
    return NO_STANCE


def _stance_for(hashtags: Iterable[str], index: Mapping[str, str]) -> str | None:
    """The tagging rule: the stance id when the hashtags match exactly one
    stance's list; None when they match none, or more than one."""
    found = None
    for tag in hashtags:
        sid = index.get(tag)
        if sid is not None and sid != found:
            if found is not None:
                return None
            found = sid
    return found


@dataclass
class StreamStats:
    """Counters from one pass over tweet shards; ``tagged`` counts tweets
    per stance id."""

    lines: int = 0
    parsed: int = 0
    parse_errors: int = 0
    tagged: dict[str, int] = field(default_factory=dict)


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def iter_tweet_stream(
    path: str | Path, stats: StreamStats
) -> Iterator[tuple[date, str, tuple[str, ...]]]:
    """Yield ``(utc_day, user, normalized_hashtags)`` for each good line of a
    JSONL shard, counting lines and bad lines in ``stats``.

    A good line holds one JSON object and nothing else but JSON whitespace,
    exactly what ``json.loads`` accepts, with the fields that
    ``TweetRecord.from_json_obj`` requires.  Blank lines are skipped
    uncounted.  Bad lines, a line that is not valid UTF-8 among them, are
    skipped, not fatal; the caller decides whether the accumulated error
    ratio still fits its budget.
    """
    decode = json.JSONDecoder().raw_decode
    # surrogateescape turns each byte that is not valid UTF-8 into a lone
    # surrogate U+DC80..U+DCFF, which strict UTF-8 never decodes to, so
    # only the line holding the byte is lost
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line in handle:
            text = line.strip(" \t\n\r")
            if not text or text.isspace():
                continue
            stats.lines += 1
            try:
                if not text.isascii() and _ESCAPED_BYTE.search(text):
                    raise MalformedRow("line is not valid UTF-8")
                obj, end = decode(text)
                if end != len(text):
                    raise MalformedRow("trailing data after the JSON value")
                _, ts, user, hashtags = _tweet_fields(obj)
            # ValueError covers JSONDecodeError and integers past the
            # interpreter's digit limit
            except (ValueError, MalformedRow, UnparseableTimestamp):
                stats.parse_errors += 1
                continue
            stats.parsed += 1
            yield ts.date(), user, hashtags


# -- daily series ---------------------------------------------------------------

@dataclass(frozen=True)
class DaySlice:
    """One UTC calendar day of counts; ``has_total`` marks a known G0 baseline."""

    date: date
    counts: StanceCounts
    has_total: bool = True


@dataclass(frozen=True)
class DailySeries:
    """Date-keyed stance counts for one topic, strictly increasing dates."""

    topic: str
    days: tuple[DaySlice, ...]

    def __post_init__(self) -> None:
        dates = [d.date for d in self.days]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("days must be strictly increasing by date")


# -- region tables ----------------------------------------------------------------

@dataclass(frozen=True)
class RegionRow:
    """One region's counts, with an optional eligible population."""

    region: str
    counts: StanceCounts
    eligible: int | None = None


@dataclass(frozen=True)
class RegionTable:
    topic: str
    rows: tuple[RegionRow, ...]

    def __post_init__(self) -> None:
        ids = [r.region for r in self.rows]
        if len(set(ids)) != len(ids):
            raise ValueError("region ids must be unique")

    def row(self, region: str) -> RegionRow:
        for r in self.rows:
            if r.region == region:
                return r
        raise KeyError(region)


def all_regions_row(rows: Sequence[RegionRow]) -> RegionRow:
    """The ``__all__`` aggregate: every region's counts summed, and their
    eligible populations too when every region has one."""
    counts = rows[0].counts
    for r in rows[1:]:
        counts = counts + r.counts
    eligibles = [r.eligible for r in rows]
    return RegionRow(ALL_REGIONS, counts, None if None in eligibles else sum(eligibles))


def turnout_adjust(counts: StanceCounts, eligible: int, region: str | None = None) -> StanceCounts:
    """Recast the no-stance group as everyone eligible who cast no valid vote.

    The eligible population must cover every ballot already counted;
    ``region``, when given, is named in the error."""
    if eligible < counts.total:
        where = "" if region is None else f"region {region!r}: "
        raise EligibleLessThanVotes(f"{where}eligible {eligible} < {counts.total} ballots cast")
    return counts.with_no_stance(eligible - sum(counts.explicit))


# -- CSV loaders -------------------------------------------------------------------

def _read_csv_rows(path: str | Path, required: Sequence[str]) -> Iterator[dict[str, str]]:
    """Stream the rows of a CSV file whose header names every ``required``
    column, as ``csv.DictReader`` would: blank lines are skipped and a long
    row keeps its extra fields under the key None.  A row with fewer fields
    than the header, or text the csv module cannot read, is malformed."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRow(f"{path}: missing header row")
            missing = [col for col in required if col not in header]
            if missing:
                raise MalformedRow(f"{path}: header lacks column(s) {missing}")
            width = len(header)
            for fields in reader:
                if not fields:
                    continue
                row = dict(zip(header, fields))
                if len(fields) < width:
                    row.update(dict.fromkeys(header[len(fields):]))
                    raise MalformedRow(f"{path}: short row {row}")
                if len(fields) > width:
                    row[None] = fields[width:]
                yield row
        except csv.Error as exc:
            raise MalformedRow(f"{path}, line {reader.line_num}: {exc}") from exc


def _read_grouped(
    path: str | Path,
    key: str,
    stance: str,
    parse: Callable[[dict[str, str]], V],
    values: Sequence[str] = (),
) -> dict[str, dict[str, V]]:
    """Rows grouped by their ``key`` cell, then by their ``stance`` cell, in
    file order; ``parse`` turns each row into its value as it is read.

    The header must also name the ``values`` columns.  A row with an empty
    key or stance, or a (key, stance) pair seen before, is malformed.
    """
    groups: dict[str, dict[str, V]] = {}
    for row in _read_csv_rows(path, (key, stance, *values)):
        group, sid = row[key], row[stance]
        if not group or not sid:
            raise MalformedRow(f"{path}: empty {key} or {stance} in row {row}")
        bucket = groups.get(group)
        if bucket is None:
            bucket = groups[group] = {}
        if sid in bucket:
            raise DuplicateStanceRow(f"{group}/{sid} appears twice")
        bucket[sid] = parse(row)
    if not groups:
        raise EmptyInput(f"{path}: no data rows")
    return groups


def _exclusive_counts(
    stances: Mapping[str, int], spaces: dict[tuple[str, ...], StanceSpace]
) -> StanceCounts:
    """Counts over an exclusive space of the explicit stances, in their order;
    the ``__none__`` entry, if any, is the no-stance group.  ``spaces`` maps
    each ordered tuple of explicit ids to its space, built on first use."""
    explicit = dict(stances)
    g0 = explicit.pop(NO_STANCE, 0)
    ids = tuple(explicit)
    space = spaces.get(ids)
    if space is None:
        space = spaces[ids] = StanceSpace.exclusive(ids)
    return StanceCounts(space, (g0, *explicit.values()))


def _parse_count(text: str, row: Mapping[str, str]) -> int:
    try:
        value = int(text)
    except (TypeError, ValueError) as exc:
        raise MalformedRow(f"count {text!r} is not an integer in row {dict(row)}") from exc
    if value < 0:
        raise NegativeCount(f"negative count in row {dict(row)}")
    return value


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise MalformedRow(f"bad date {text!r} (want YYYY-MM-DD)") from exc


def _agree(seen: dict[str, V], topic: str, value: V, what: str) -> None:
    """Keep the first ``value`` a topic's rows give; a row of that topic
    that gives another value is malformed."""
    if seen.setdefault(topic, value) != value:
        raise MalformedRow(f"topic {topic!r} carries conflicting {what}")


def load_poll_topline(path: str | Path) -> list[tuple[str, StanceCounts]]:
    """Read poll toplines into one StanceCounts per topic, in file order.

    Accepts either a ``count`` column or a ``percent`` column; percentages
    need a ``total`` (respondent count) column, the same on every row of a
    topic, and are converted to effective counts with round-half-to-even.
    The ``__none__`` stance row holds the no-answer group.
    """
    totals: dict[str, int] = {}

    def parse(row: Mapping[str, str]) -> int:
        if "count" in row:
            return _parse_count(row["count"], row)
        if "percent" not in row:
            raise MalformedRow(f"poll rows need a 'count' or 'percent' column, got {dict(row)}")
        try:
            percent = Fraction(row["percent"])
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedRow(f"bad percentage in row {dict(row)}") from exc
        if percent < 0:
            raise NegativeCount(f"negative percentage in row {dict(row)}")
        total_text = (row.get("total") or "").strip()
        if not total_text:
            raise MissingTotal(f"percentage row without respondent total: {dict(row)}")
        total = _parse_count(total_text, row)
        _agree(totals, row["topic"], total, "respondent totals")
        # round() on an exact Fraction is round-half-to-even, so rounding noise
        # stays bounded by 1/total and never depends on float formatting.
        return round(percent * total / 100)

    topics = _read_grouped(path, "topic", "stance", parse)
    spaces: dict[tuple[str, ...], StanceSpace] = {}
    return [(topic, _exclusive_counts(stances, spaces)) for topic, stances in topics.items()]


def load_vote_records(path: str | Path, turnout: str = "ballots") -> RegionTable:
    """Read regional votes; non-voters and rejected ballots carry no stance.

    ``turnout="ballots"``: g0 = rejected ballots (+ any ``__none__`` ballots).
    ``turnout="eligible"``: g0 = eligible - valid votes, folding non-voters
    and rejected ballots together; every region then needs an
    ``__eligible__`` sidecar row.  In both, an ``__eligible__`` row must
    cover the region's ballots (see ``turnout_adjust``).  An ``__all__``
    row summing every region is appended.
    """
    if turnout not in ("ballots", "eligible"):
        raise ValueError(f"turnout must be 'ballots' or 'eligible', got {turnout!r}")
    options: dict[str, None] = {}  # the valid options, in the order the file names them

    def parse(row: dict[str, str]) -> int:
        if row["region"] == ALL_REGIONS:
            raise MalformedRow(f"region id {ALL_REGIONS!r} is reserved for the aggregate")
        if row["option"] not in (ELIGIBLE, REJECTED, NO_STANCE):
            options[row["option"]] = None
        return _parse_count(row["count"], row)

    per_region = _read_grouped(path, "region", "option", parse, ("count",))
    space = StanceSpace.exclusive(list(options))
    table_rows = []
    for region, bucket in per_region.items():
        ballots = bucket.get(REJECTED, 0) + bucket.get(NO_STANCE, 0)
        counts = StanceCounts(space, (ballots, *(bucket.get(sid, 0) for sid in options)))
        eligible = bucket.get(ELIGIBLE)
        if eligible is not None:
            adjusted = turnout_adjust(counts, eligible, region)
            if turnout == "eligible":
                counts = adjusted
        elif turnout == "eligible":
            raise MissingEligible(f"region {region!r} has no {ELIGIBLE} row")
        table_rows.append(RegionRow(region, counts, eligible))
    table_rows.append(all_regions_row(table_rows))
    return RegionTable(Path(path).stem, tuple(table_rows))


def load_daily_totals(path: str | Path) -> dict[date, int]:
    """Read the ``date,total`` baseline counts (the G0 source) per UTC day."""
    totals: dict[date, int] = {}
    for row in _read_csv_rows(path, ("date", "total")):
        day = _parse_date(row["date"])
        if day in totals:
            raise DuplicateStanceRow(f"date {row['date']} appears twice in totals")
        totals[day] = _parse_count(row["total"], row)
    if not totals:
        raise EmptyInput(f"{path}: no data rows")
    return totals


def load_quadrant_topics(path: str | Path) -> list[tuple[str, StanceCounts, float | None]]:
    """Read ``topic,stance,count,importance`` rows into per-topic counts.

    The importance rating must agree across a topic's rows; an empty field
    means the topic has no rating (rejected later unless skipped).
    """
    ratings: dict[str, float | None] = {}

    def parse(row: Mapping[str, str]) -> int:
        count = _parse_count(row["count"], row)
        _agree(ratings, row["topic"], _importance(row), "importance ratings")
        return count

    topics = _read_grouped(path, "topic", "stance", parse, ("count",))
    spaces: dict[tuple[str, ...], StanceSpace] = {}
    return [
        (topic, _exclusive_counts(stances, spaces), ratings[topic])
        for topic, stances in topics.items()
    ]


def _importance(row: Mapping[str, str]) -> float | None:
    text = (row.get("importance") or "").strip()
    if not text:
        return None
    try:
        rating = float(text)
    except ValueError as exc:
        raise MalformedRow(f"importance {text!r} is not a number in row {dict(row)}") from exc
    if not math.isfinite(rating):
        raise MalformedRow(f"importance {text!r} is not finite in row {dict(row)}")
    return rating


# -- daily tweet counting ------------------------------------------------------------

class _DayAccumulator:
    """Streaming per-day stance tally; the order tweets arrive in does not
    change it."""

    def __init__(self, lexicon: StanceLexicon, by_user: bool) -> None:
        self.lexicon = lexicon
        self.by_user = by_user
        self.index = lexicon.tag_index()
        self.stance_ids = lexicon.space().ids
        # tweets per day and stance id, None counting the untagged; every
        # day seen is a key, in both modes
        self.day_counts: dict[date, dict[str | None, int]] = {}
        self.day_users: dict[date, dict[str, set[str]]] = {}
        self.user_stances: dict[str, set[str]] = {}

    def add(self, day: date, user: str, hashtags: Iterable[str]) -> None:
        stance = _stance_for(hashtags, self.index)
        bucket = self.day_counts.get(day)
        if bucket is None:
            bucket = self.day_counts[day] = {}
        bucket[stance] = bucket.get(stance, 0) + 1
        if stance is not None and self.by_user:
            self.day_users.setdefault(day, {}).setdefault(stance, set()).add(user)
            self.user_stances.setdefault(user, set()).add(stance)

    def tagged(self) -> dict[str, int]:
        """Tagged tweets per stance id over every day; stances never tagged
        are absent."""
        out: dict[str, int] = {}
        for bucket in self.day_counts.values():
            for sid, n in bucket.items():
                if sid is not None:
                    out[sid] = out.get(sid, 0) + n
        return out

    def _explicit_counts(self, day: date) -> dict[str, int]:
        if not self.by_user:
            bucket = self.day_counts.get(day, {})
            return {sid: bucket.get(sid, 0) for sid in self.stance_ids}
        bucket_users = self.day_users.get(day, {})
        out = {}
        for sid in self.stance_ids:
            users = bucket_users.get(sid, set())
            # a user who ever tweets conflicting stances in the window is
            # excluded from every group
            out[sid] = sum(1 for u in users if len(self.user_stances[u]) == 1)
        return out

    def finish(self, totals: Mapping[date, int] | None) -> DailySeries:
        space = self.lexicon.space()
        seen_days = set(self.day_counts)
        if totals:
            seen_days |= set(totals)
        days = []
        for day in sorted(seen_days):
            explicit = self._explicit_counts(day)
            tagged_sum = sum(explicit.values())
            total = totals.get(day) if totals else None
            if total is not None and total < tagged_sum:
                raise TotalLessThanStanceCounts(
                    f"{day}: day total {total} < {tagged_sum} stance-tagged"
                )
            g0 = 0 if total is None else total - tagged_sum
            counts = StanceCounts.from_mapping(space, explicit, no_stance=g0)
            days.append(DaySlice(day, counts, has_total=total is not None))
        return DailySeries(self.lexicon.topic, tuple(days))


def build_daily_counts(
    records: Iterable[TweetRecord],
    lexicon: StanceLexicon,
    totals: Mapping[date, int] | None = None,
    *,
    by_user: bool = False,
) -> DailySeries:
    """Bucket a tweet stream by UTC date into per-stance daily counts.

    Input order is irrelevant.  With daily totals, each day's no-stance
    count is total - tagged (the day's whole sample is the population);
    days carrying tags but no total row keep only the stance-holders
    variant.  ``by_user=True`` counts distinct user ids instead of tweets.
    """
    acc = _DayAccumulator(lexicon, by_user)
    for record in records:
        acc.add(record.ts.date(), record.user, record.hashtags)
    return acc.finish(totals)


def ingest_tweets(
    paths: Sequence[str | Path],
    lexicon: StanceLexicon,
    totals: Mapping[date, int] | None = None,
    *,
    by_user: bool = False,
    error_budget: float = 0.001,
) -> tuple[DailySeries, StreamStats]:
    """Read one or more JSONL shards into a DailySeries plus stream stats.

    The shards are read in the given order, in one pass, into one tally;
    the result does not depend on that order.  Lines that fail to parse
    are skipped and counted; when they exceed ``error_budget`` as a
    fraction of all lines, the whole run fails.
    """
    acc = _DayAccumulator(lexicon, by_user)
    stats = StreamStats()
    add = acc.add
    for path in paths:
        for day, user, hashtags in iter_tweet_stream(path, stats):
            add(day, user, hashtags)
    if stats.lines and stats.parse_errors / stats.lines > error_budget:
        raise ErrorBudgetExceeded(
            f"{stats.parse_errors}/{stats.lines} lines unparseable "
            f"(budget {error_budget:.4%})"
        )
    stats.tagged = acc.tagged()
    return acc.finish(totals), stats
