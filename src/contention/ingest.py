"""Readers for explicit-stance datasets and implicit-stance tweet streams.

Explicit sources (poll toplines, regional vote records) arrive as CSV and
become StanceCounts directly.  Tweets arrive as JSON-lines and get their
stance from an explicit hashtag lexicon: a tweet is tagged only when its
hashtags hit exactly one stance's list, so precision beats recall, and
everything untagged lands in the no-stance group.

File schemas (UTF-8, RFC-4180 quoting):

- poll topline:   header ``topic,stance,count`` or ``topic,stance,percent,total``;
  stance literal ``__none__`` is the no-stance row.  A percent lies in
  [0, 100] and writes no exponent past +-1000.
- vote records:   header ``region,option,count``; option literals
  ``__eligible__`` (eligible population sidecar), ``__rejected__``
  (rejected ballots) and ``__none__`` (ballots counted as no stance).
- daily totals:   header ``date,total`` with ``YYYY-MM-DD`` dates.
- tweet stream:   one JSON object per line: ``id`` (required, but never
  read), ``ts`` (ISO-8601 with offset, or naive for UTC; its UTC calendar
  day is kept), ``user`` (read as the ``str()`` of any JSON value),
  ``hashtags`` (a JSON array of strings, each put in ``normalize_hashtag``
  form; any other element counts as its ``str()``).  Any other
  ``hashtags`` value makes the line malformed.
- stance lexicon: JSON ``{topic, stances: [{id, label, hashtags: [...]}]}``,
  a UTF-8 byte-order mark before it dropped; ``label`` is accepted and unused.
- quadrant topics: header ``topic,stance,count,importance``.

Each loader reads its CSV by column, found once from the header.  A UTF-8
byte-order mark before the header is dropped.  A header that names a column
the loader reads twice (``count`` in ``topic,stance,count,count``) is
malformed; a repeated column no loader reads is legal.

Poll, vote and quadrant rows are grouped by topic (region) and stance
(option); a row with a missing field, an empty key or stance, or a repeated
(key, stance) pair is malformed.  Each loader builds one StanceSpace per
distinct ordered list of explicit stances and shares it among the topics
(regions) that list them, and holds each distinct stance id once, as one
string object, however many rows repeat it.  Each loader holds the open
topic's rows in a dict and each finished topic as its one StanceCounts,
when each topic's rows come together; equal counts within a load share
one int object, up to a capped memo of distinct values.  A later row
of a finished topic reopens it, and a reopened topic stays a dict until
the file ends.  The vote loader then rebuilds each region's counts over
its one space of every option.

``json``, ``datetime`` and ``fractions`` are imported by the paths that
call them, once per call, so a count-file load never pays for them.
"""

from __future__ import annotations

import csv
import math
import re
import sys
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
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
from .model import NO_STANCE, StanceCounts, StanceSpace

if TYPE_CHECKING:
    from datetime import date
    from fractions import Fraction

ELIGIBLE = "__eligible__"
REJECTED = "__rejected__"
ALL_REGIONS = "__all__"

V = TypeVar("V")


def normalize_hashtag(tag: str) -> str:
    """Canonical hashtag form: no leading '#', then NFC, case folding and NFC
    again.  Case folding can undo NFC ('\u1f8c' folds to '\u1f04\u03b9', whose
    iota composes with a following accent), so the second NFC is what makes
    a canonical tag normalize to itself."""
    tag = tag.lstrip("#")
    if tag.isascii():
        # NFC leaves ASCII text unchanged, and casefold() equals lower() on it
        return tag.lower()
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", tag).casefold())


# -- stance lexicons and tweets ------------------------------------------------

@dataclass(frozen=True)
class StanceLexicon:
    """One topic's exclusive StanceSpace and read-only tag index, from each
    normalized hashtag to its one stance id.  A space that is not exclusive,
    or an index naming an id outside it, raises ValueError; ``from_json``
    reports a bad id or a hashtag under two stances as a MalformedRow."""

    topic: str
    space: StanceSpace
    tag_index: Mapping[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        if not self.space.is_exclusive():
            raise ValueError("a lexicon's stances must be mutually exclusive")
        if not set(self.tag_index.values()).issubset(self.space.ids):
            raise ValueError("a lexicon's tag index names a stance outside its space")
        object.__setattr__(self, "tag_index", MappingProxyType(dict(self.tag_index)))

    @classmethod
    def from_json(cls, path: str | Path) -> StanceLexicon:
        import json

        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedRow(f"cannot read lexicon {path}: {exc}") from exc
        try:
            entries = []
            for entry in doc["stances"]:
                sid, tags = entry["id"], entry["hashtags"]
                if not isinstance(sid, str):
                    raise TypeError(f"stance id must be a JSON string, got {sid!r}")
                if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                    raise TypeError(f"hashtags must be a JSON array of strings, got {tags!r}")
                entries.append((sid, tags))
            topic = str(doc["topic"])
            space = StanceSpace.exclusive([sid for sid, _ in entries])
            index: dict[str, str] = {}
            for sid, tags in entries:
                for tag in map(normalize_hashtag, tags):
                    if index.setdefault(tag, sid) != sid:
                        raise ValueError(
                            f"hashtag #{tag} appears under both {index[tag]!r} and {sid!r}"
                        )
            return cls(topic, space, index)
        except KeyError as exc:
            raise MalformedRow(f"lexicon {path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise MalformedRow(f"lexicon {path}: {exc}") from exc


def _stance_for(hashtags: Iterable[object], index: Mapping[str, str]) -> str | None:
    """The tagging rule: the stance id when the hashtags, each normalized,
    match exactly one stance's list; None when they match none, or more than
    one.  A tag that is not a string counts as its ``str()``."""
    found = None
    for tag in hashtags:
        if isinstance(tag, str) and tag.isascii():
            # normalize_hashtag's ASCII branch, without a call per tag
            sid = index.get(tag.lstrip("#").lower())
        else:
            sid = index.get(normalize_hashtag(str(tag)))
        if sid is not None and sid != found:
            if found is not None:
                return None
            found = sid
    return found


@dataclass
class StreamStats:
    """Counters from one pass over tweet shards: each counted line is parsed
    or a parse error, and ``tagged`` counts tweets per stance id."""

    lines: int = 0
    parse_errors: int = 0
    tagged: dict[str, int] = field(default_factory=dict)

    @property
    def parsed(self) -> int:
        return self.lines - self.parse_errors


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def iter_tweet_stream(
    path: str | Path, stats: StreamStats
) -> Iterator[tuple[date, str, list]]:
    """Yield ``(utc_day, user, raw_hashtags)`` for each good line of a JSONL
    shard, and add its counts of lines and bad lines to ``stats`` when the
    stream ends or is closed.  ``raw_hashtags`` is the line's ``hashtags``
    array as decoded, not normalized: the tagging rule normalizes each tag.

    A good line holds one JSON object and nothing else but JSON whitespace,
    exactly what ``json.loads`` accepts, with the fields the module
    docstring lists.  Blank lines are skipped uncounted.  Bad lines, a line
    that is not valid UTF-8 among them, are skipped, not fatal; the caller
    decides whether the accumulated error ratio still fits its budget.
    """
    import json
    from datetime import datetime, timezone

    # raw_decode calls this scanner only to turn its StopIteration into JSONDecodeError
    scan = json.JSONDecoder().scan_once
    utc = timezone.utc
    lines = errors = 0
    try:
        # surrogateescape turns each byte that is not valid UTF-8 into a lone
        # surrogate U+DC80..U+DCFF, which strict UTF-8 never decodes to, so
        # only the line holding the byte is lost
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                text = line.strip(" \t\n\r")
                if not text or text.isspace():
                    continue
                lines += 1
                try:
                    if not text.isascii() and _ESCAPED_BYTE.search(text):
                        raise MalformedRow("line is not valid UTF-8")
                    obj, end = scan(text, 0)
                    if end != len(text):
                        raise MalformedRow("trailing data after the JSON value")
                    hashtags = obj["hashtags"]
                    if not isinstance(hashtags, list):
                        raise MalformedRow("hashtags must be a JSON array")
                    obj["id"]  # required, though never read
                    user = str(obj["user"])
                    stamp = str(obj["ts"]).strip()
                    if stamp.endswith(("Z", "z")):
                        stamp = stamp[:-1] + "+00:00"  # Python 3.10's fromisoformat reads no Z
                    ts = datetime.fromisoformat(stamp)
                    # fromisoformat gives a zero offset the one timezone.utc, so
                    # this identity test skips the shift more cheaply than
                    # utcoffset() could; a naive instant is UTC, and any other
                    # zone is shifted, correctly
                    zone = ts.tzinfo
                    day = (ts if zone is None or zone is utc else ts.astimezone(utc)).date()
                # StopIteration: no JSON value; KeyError: a missing field;
                # TypeError: not a JSON object; ValueError: JSONDecodeError, a
                # bad timestamp, an integer past the digit limit; OverflowError:
                # a shift past the datetime range; RecursionError: nested too deep
                except (StopIteration, KeyError, TypeError, ValueError, OverflowError,
                        RecursionError, MalformedRow):
                    errors += 1
                    continue
                yield day, user, hashtags
    finally:
        stats.lines += lines
        stats.parse_errors += errors


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
    """A topic's regions.  The table owns the ``__all__`` aggregate: rows
    given without one gain ``all_regions_row(rows)`` at the end."""

    topic: str
    rows: tuple[RegionRow, ...]

    def __post_init__(self) -> None:
        ids = [r.region for r in self.rows]
        if len(set(ids)) != len(ids):
            raise ValueError("region ids must be unique")
        if ids and ALL_REGIONS not in ids:
            object.__setattr__(self, "rows", (*self.rows, all_regions_row(self.rows)))


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
        try:
            ballots = str(counts.total)
        except ValueError:  # more digits than the interpreter writes as text
            ballots = f"more than {sys.get_int_max_str_digits()} digits of"
        raise EligibleLessThanVotes(f"{where}eligible {eligible} < {ballots} ballots cast")
    return counts.with_no_stance(eligible - sum(counts.explicit))


# -- CSV loaders -------------------------------------------------------------------

def _read_csv_rows(
    path: str | Path, required: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[list[str]]:
    """Stream a CSV file as ``csv.reader`` field lists: first its header,
    then the fields of each data row.

    The header must name every ``required`` column and may name no
    ``required`` or ``optional`` column twice; a UTF-8 byte-order mark
    before it is dropped.  Blank lines are skipped and a long row keeps its
    extra fields.  A row with fewer fields than the header, or text the csv
    module cannot read, is malformed."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRow(f"{path}: missing header row")
            missing = [col for col in required if col not in header]
            if missing:
                raise MalformedRow(f"{path}: header lacks column(s) {missing}")
            repeated = [col for col in (*required, *optional) if header.count(col) > 1]
            if repeated:
                raise MalformedRow(f"{path}: header repeats column(s) {repeated}")
            yield header
            width = len(header)
            for fields in reader:
                if len(fields) < width:
                    if not fields:
                        continue
                    raise MalformedRow(f"{path}: short row {_row(header, fields)}")
                yield fields
        except csv.Error as exc:
            raise MalformedRow(f"{path}, line {reader.line_num}: {exc}") from exc


def _row(header: Sequence[str], fields: Sequence[str]) -> dict:
    """A row as ``csv.DictReader`` reads it, for error messages: a missing
    field reads None and extra fields are listed under the key None."""
    row: dict = dict(zip(header, fields))
    width = len(header)
    if len(fields) < width:
        row.update(dict.fromkeys(header[len(fields):]))
    elif len(fields) > width:
        row[None] = fields[width:]
    return row


#: the most distinct count values a table load's memo holds at once
_SHARED_COUNTS_CAP = 4096


def _read_grouped(
    path: str | Path,
    header: list[str],
    rows: Iterator[list[str]],
    key: str,
    stance: str,
    parse: Callable[[str, str, list[str]], int],
) -> dict[str, StanceCounts]:
    """The ``rows`` it is given, grouped under the ``header`` it is given by
    their ``key`` cell, then by their ``stance`` cell, in file order, each
    group as its StanceCounts (``_exclusive_counts``).  ``parse`` turns a
    row's key, stance and fields into its count as it is read.

    A row with an empty key or stance, or a (key, stance) pair seen before,
    is malformed.

    A group is closed once a row names another group.  A later row of it
    reopens it, and a reopened group stays open until the file ends, so
    each group is closed at most twice however often its rows are split.
    """
    at_key, at_stance = header.index(key), header.index(stance)
    groups: dict[str, dict[str, int] | StanceCounts] = {}
    spaces: dict[tuple[str, ...], StanceSpace] = {}
    # a reopened group stays open until the file ends: only a new one closes
    group_now, bucket, closes = None, {}, False
    # closed groups whose __none__ row holds 0, the one row their counts lose
    zero_none: set[str] = set()
    # csv.reader makes a new string per cell; this keeps the first string of
    # each stance id, so every bucket and space that names it holds that one
    first_of: Callable[[str, str], str] = {}.setdefault
    # each parsed count is a new int too; this keeps the first of each value,
    # emptied when full so that counts which never repeat cost no more
    shared: dict[int, int] = {}
    for fields in rows:
        group, sid = fields[at_key], fields[at_stance]
        sid = first_of(sid, sid)
        if not group or not sid:
            raise MalformedRow(f"{path}: empty {key} or {stance} in row {_row(header, fields)}")
        if group != group_now:
            if closes:
                if bucket.get(NO_STANCE) == 0:
                    zero_none.add(group_now)
                groups[group_now] = _exclusive_counts(bucket, spaces)
            group_now, bucket = group, groups.get(group)
            closes = bucket is None
            if bucket is None:
                bucket = groups[group] = {}
            elif isinstance(bucket, StanceCounts):  # reopen a closed group from its counts
                counts = bucket
                bucket = groups[group] = dict(zip(counts.space.ids, counts.explicit))
                if counts.no_stance or group in zero_none:
                    bucket[NO_STANCE] = counts.no_stance
        if sid in bucket:
            raise DuplicateStanceRow(f"{group}/{sid} appears twice")
        count = parse(group, sid, fields)
        if len(shared) >= _SHARED_COUNTS_CAP:
            shared.clear()
        bucket[sid] = shared.setdefault(count, count)
    if not groups:
        raise EmptyInput(f"{path}: no data rows")
    for group, bucket in groups.items():
        if not isinstance(bucket, StanceCounts):
            groups[group] = _exclusive_counts(bucket, spaces)
    return groups


def _exclusive_counts(
    stances: dict[str, int], spaces: dict[tuple[str, ...], StanceSpace]
) -> StanceCounts:
    """Counts over an exclusive space of the explicit stances, in their order;
    the ``__none__`` entry, popped if any, is the no-stance group.
    ``spaces`` maps each ordered tuple of explicit ids to its space, built
    on first use."""
    g0 = stances.pop(NO_STANCE, 0)
    ids = tuple(stances)
    space = spaces.get(ids)
    if space is None:
        space = spaces[ids] = StanceSpace.exclusive(ids)
    return StanceCounts(space, (g0, *stances.values()))


def _parse_count(text: str, header: Sequence[str], fields: Sequence[str]) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise MalformedRow(
            f"count {text!r} is not an integer in row {_row(header, fields)}"
        ) from exc
    if value < 0:
        raise NegativeCount(f"negative count in row {_row(header, fields)}")
    return value


_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _agree(seen: dict[str, V], topic: str, value: V, what: str) -> None:
    """Keep the first ``value`` a topic's rows give; a row of that topic
    that gives another value is malformed."""
    if seen.setdefault(topic, value) != value:
        raise MalformedRow(f"topic {topic!r} carries conflicting {what}")


#: the largest exponent magnitude a percent cell may write: ``Fraction``
#: builds ten to that power, so past it the parse would cost time that
#: grows with the exponent's value instead of the cell's length
_PERCENT_EXPONENT_LIMIT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")


def _percent_count(percent: Fraction, total: int) -> int:
    """``round(percent * total / 100)`` in one exact integer step: the
    quotient rounded half to even, so rounding noise stays bounded by
    1/total and never depends on float formatting."""
    den = 100 * percent.denominator
    count, rest = divmod(percent.numerator * total, den)
    if 2 * rest > den or (2 * rest == den and count & 1):
        count += 1
    return count


def load_poll_topline(path: str | Path) -> list[tuple[str, StanceCounts]]:
    """Read poll toplines into one StanceCounts per topic, in file order.

    Accepts either a ``count`` column or a ``percent`` column; percentages
    need a ``total`` (respondent count) column, the same on every row of a
    topic, and are converted to effective counts with round-half-to-even.
    The ``__none__`` stance row holds the no-answer group.
    """
    rows = _read_csv_rows(path, ("topic", "stance"), ("count", "percent", "total"))
    header = next(rows)
    totals: dict[str, int] = {}
    if "count" in header:
        at_count = header.index("count")

        def parse(topic: str, sid: str, fields: list[str]) -> int:
            return _parse_count(fields[at_count], header, fields)
    elif "percent" not in header:
        def parse(topic: str, sid: str, fields: list[str]) -> int:
            raise MalformedRow(
                f"poll rows need a 'count' or 'percent' column, got {_row(header, fields)}"
            )
    else:
        from fractions import Fraction

        at_percent = header.index("percent")
        at_total = header.index("total") if "total" in header else None

        def parse(topic: str, sid: str, fields: list[str]) -> int:
            text = fields[at_percent]
            try:
                if "_" in text:
                    raise ValueError("Fraction reads a '_' digit separator only from Python 3.11")
                exponent = _EXPONENT.search(text)
                if exponent and abs(int(exponent[1])) > _PERCENT_EXPONENT_LIMIT:
                    raise ValueError(f"exponent past +-{_PERCENT_EXPONENT_LIMIT}")
                percent = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedRow(f"bad percentage in row {_row(header, fields)}") from exc
            if percent.numerator < 0:
                raise NegativeCount(f"negative percentage in row {_row(header, fields)}")
            if percent.numerator > 100 * percent.denominator:
                raise MalformedRow(f"percentage above 100 in row {_row(header, fields)}")
            total_text = "" if at_total is None else fields[at_total].strip()
            if not total_text:
                raise MissingTotal(
                    f"percentage row without respondent total: {_row(header, fields)}"
                )
            total = _parse_count(total_text, header, fields)
            _agree(totals, topic, total, "respondent totals")
            return _percent_count(percent, total)

    return list(_read_grouped(path, header, rows, "topic", "stance", parse).items())


def load_vote_records(path: str | Path, turnout: str = "ballots") -> RegionTable:
    """Read regional votes; non-voters and rejected ballots carry no stance.

    ``turnout="ballots"``: g0 = rejected ballots (+ any ``__none__`` ballots).
    ``turnout="eligible"``: g0 = eligible - valid votes, folding non-voters
    and rejected ballots together; every region then needs an
    ``__eligible__`` sidecar row.  In both, an ``__eligible__`` row must
    cover the region's ballots (see ``turnout_adjust``).  The table adds
    the ``__all__`` row summing every region.
    """
    if turnout not in ("ballots", "eligible"):
        raise ValueError(f"turnout must be 'ballots' or 'eligible', got {turnout!r}")
    rows = _read_csv_rows(path, ("region", "option", "count"))
    header = next(rows)
    at_count = header.index("count")
    options: dict[str, None] = {}  # the valid options, in the order the file names them

    def parse(region: str, option: str, fields: list[str]) -> int:
        if region == ALL_REGIONS:
            raise MalformedRow(f"region id {ALL_REGIONS!r} is reserved for the aggregate")
        if option not in (ELIGIBLE, REJECTED, NO_STANCE):
            options[option] = None
        return _parse_count(fields[at_count], header, fields)

    per_region = _read_grouped(path, header, rows, "region", "option", parse)
    space = StanceSpace.exclusive(list(options))
    table_rows = []
    for region, closed in per_region.items():
        bucket = dict(zip(closed.space.ids, closed.explicit))
        ballots = bucket.get(REJECTED, 0) + closed.no_stance
        counts = StanceCounts(space, (ballots, *(bucket.get(sid, 0) for sid in options)))
        eligible = bucket.get(ELIGIBLE)
        if eligible is not None:
            adjusted = turnout_adjust(counts, eligible, region)
            if turnout == "eligible":
                counts = adjusted
        elif turnout == "eligible":
            raise MissingEligible(f"region {region!r} has no {ELIGIBLE} row")
        table_rows.append(RegionRow(region, counts, eligible))
    return RegionTable(Path(path).stem, tuple(table_rows))


def load_daily_totals(path: str | Path) -> dict[date, int]:
    """Read the ``date,total`` baseline counts (the G0 source) per UTC day."""
    from datetime import date

    rows = _read_csv_rows(path, ("date", "total"))
    header = next(rows)
    at_date, at_total = header.index("date"), header.index("total")
    totals: dict[date, int] = {}
    for fields in rows:
        text = fields[at_date]
        # only YYYY-MM-DD: Python 3.11+'s fromisoformat also reads 20160501 and 2016-W18-7
        try:
            if not _ISO_DATE.fullmatch(text):
                raise ValueError("not YYYY-MM-DD")
            day = date.fromisoformat(text)
        except ValueError as exc:
            raise MalformedRow(f"bad date {text!r} (want YYYY-MM-DD)") from exc
        if day in totals:
            raise DuplicateStanceRow(f"date {text} appears twice in totals")
        totals[day] = _parse_count(fields[at_total], header, fields)
    if not totals:
        raise EmptyInput(f"{path}: no data rows")
    return totals


def load_quadrant_topics(path: str | Path) -> list[tuple[str, StanceCounts, float | None]]:
    """Read ``topic,stance,count,importance`` rows into per-topic counts.

    The importance rating must agree across a topic's rows; an empty field
    means the topic has no rating (rejected when it is scored).
    """
    rows = _read_csv_rows(path, ("topic", "stance", "count"), ("importance",))
    header = next(rows)
    at_count = header.index("count")
    at_importance = header.index("importance") if "importance" in header else None
    ratings: dict[str, float | None] = {}

    def parse(topic: str, sid: str, fields: list[str]) -> int:
        count = _parse_count(fields[at_count], header, fields)
        text = "" if at_importance is None else fields[at_importance]
        _agree(ratings, topic, _importance(text, header, fields), "importance ratings")
        return count

    topics = _read_grouped(path, header, rows, "topic", "stance", parse)
    return [(topic, counts, ratings[topic]) for topic, counts in topics.items()]


def _importance(text: str, header: Sequence[str], fields: Sequence[str]) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        rating = float(text)
    except ValueError as exc:
        raise MalformedRow(
            f"importance {text!r} is not a number in row {_row(header, fields)}"
        ) from exc
    if not math.isfinite(rating):
        raise MalformedRow(f"importance {text!r} is not finite in row {_row(header, fields)}")
    return rating


# -- daily tweet counting ------------------------------------------------------------

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
    neither that order nor the order of the tweets in a shard changes it.
    Lines that fail to parse are skipped and counted; when they exceed
    ``error_budget`` as a fraction of all lines, the whole run fails.
    ``by_user`` counts each day's distinct tagged users instead of tweets,
    keeping one stance id per user (cleared once they tag a second stance,
    which drops them from every day) and one set of users per day.
    """
    index, space = lexicon.tag_index, lexicon.space
    # tweets per day and stance id, None counting the untagged; every day
    # seen is a key, in both modes
    day_counts: dict[date, dict[str | None, int]] = defaultdict(lambda: defaultdict(int))
    # by user: each tagged user's one stance id, None once they tag a
    # second stance, and the users tagged on each day
    user_stance: dict[str, str | None] = {}
    day_users: dict[date, set[str]] = defaultdict(set)
    stats = StreamStats()
    for path in paths:
        for day, user, hashtags in iter_tweet_stream(path, stats):
            stance = _stance_for(hashtags, index)
            day_counts[day][stance] += 1
            if stance is not None and by_user:
                if user_stance.setdefault(user, stance) != stance:
                    user_stance[user] = None
                day_users[day].add(user)
    if stats.lines and stats.parse_errors / stats.lines > error_budget:
        raise ErrorBudgetExceeded(f"{stats.parse_errors}/{stats.lines} lines unparseable "
                                  f"(budget {error_budget:.4%})")
    tagged = sum(map(Counter, day_counts.values()), Counter())
    tagged.pop(None, None)
    stats.tagged = dict(tagged)
    days = []
    for day in sorted(set(day_counts).union(totals or ())):
        if by_user:
            # a user who ever tweets conflicting stances in the window is
            # excluded from every group
            bucket = Counter(map(user_stance.__getitem__, day_users.get(day, ())))
        else:
            bucket = day_counts.get(day, {})
        explicit = {sid: bucket.get(sid, 0) for sid in space.ids}
        tagged_sum = sum(explicit.values())
        total = totals.get(day) if totals else None
        if total is not None and total < tagged_sum:
            raise TotalLessThanStanceCounts(
                f"{day}: day total {total} < {tagged_sum} stance-tagged")
        g0 = 0 if total is None else total - tagged_sum
        counts = StanceCounts.from_mapping(space, explicit, no_stance=g0)
        days.append(DaySlice(day, counts, has_total=total is not None))
    return DailySeries(lexicon.topic, tuple(days)), stats
