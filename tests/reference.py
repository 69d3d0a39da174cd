"""The per-record tweet path, kept as the oracle that ``ingest_tweets`` must
agree with.

It shares no code with the stream it checks beyond ``normalize_hashtag``
and the lexicon's tag index: it decodes each line with ``json.loads``,
checks the fields itself, finds the UTC day through ``astimezone``, tags
with the tagging rule written as sets, and counts each day from the records
it kept.  Its results are plain tuples, not the package's types.
"""

from __future__ import annotations

import json
from collections import Counter
from datetime import date, datetime, timezone

from contention.ingest import StanceLexicon, normalize_hashtag

FIELDS = {"id", "ts", "user", "hashtags"}


class BadLine(Exception):
    """A line the reference counts as malformed."""


class OverBudget(Exception):
    """More malformed lines than the error budget allows."""


class TotalBelowTagged(Exception):
    """A day's total smaller than its stance-tagged count."""


def utc_day(text: str) -> date:
    """The UTC calendar day of an ISO-8601 instant ('Z' accepted); a naive
    instant is UTC."""
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        instant = datetime.fromisoformat(text)
        if instant.tzinfo is None:
            instant = instant.replace(tzinfo=timezone.utc)
        return instant.astimezone(timezone.utc).date()
    except (ValueError, OverflowError) as exc:
        raise BadLine(f"bad timestamp {text!r}") from exc


def tweet_record(obj: object) -> tuple[date, str, set[str]]:
    """``(UTC day, user, normalized hashtags)`` of one decoded tweet."""
    if not isinstance(obj, dict) or not FIELDS <= obj.keys():
        raise BadLine("not an object with every tweet field")
    if not isinstance(obj["hashtags"], list):
        raise BadLine("hashtags is not a JSON array")
    return (utc_day(str(obj["ts"])), str(obj["user"]),
            {normalize_hashtag(str(tag)) for tag in obj["hashtags"]})


def stance_of(hashtags: set[str], lexicon: StanceLexicon) -> str | None:
    """The stance whose list the hashtags hit, when exactly one list is hit."""
    index = lexicon.tag_index
    matched = {index[tag] for tag in hashtags if tag in index}
    return matched.pop() if len(matched) == 1 else None


def reference_ingest(paths, lexicon, totals, by_user, error_budget):
    """``ingest_tweets`` as plain data: ``((topic, days), (lines, parsed,
    parse_errors, tagged))`` where each day is ``(date, counts, has_total)``
    and counts put the no-stance group first, then the lexicon's stances in
    order.  Raises OverBudget or TotalBelowTagged where it fails."""
    lines = parse_errors = 0
    tweets = []
    for path in paths:
        with open(path, "rb") as handle:
            for raw in handle:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    lines += 1
                    parse_errors += 1
                    continue
                if not line.strip():
                    continue
                lines += 1
                try:
                    day, user, hashtags = tweet_record(json.loads(line))
                except (BadLine, ValueError, RecursionError):
                    parse_errors += 1
                    continue
                tweets.append((day, user, stance_of(hashtags, lexicon)))
    if lines and parse_errors / lines > error_budget:
        raise OverBudget(f"{parse_errors}/{lines} lines malformed")

    stances_of: dict[str, set[str]] = {}
    for _, user, stance in tweets:
        if stance is not None:
            stances_of.setdefault(user, set()).add(stance)
    totals = totals or {}
    days = []
    for day in sorted({day for day, _, _ in tweets} | set(totals)):
        explicit = []
        for sid in lexicon.space.ids:
            holders = [user for d, user, stance in tweets if d == day and stance == sid]
            if by_user:
                # a user seen under two stances anywhere counts under none
                holders = {user for user in holders if stances_of[user] == {sid}}
            explicit.append(len(holders))
        total = totals.get(day)
        if total is not None and total < sum(explicit):
            raise TotalBelowTagged(f"{day}: total {total} < {sum(explicit)} tagged")
        no_stance = 0 if total is None else total - sum(explicit)
        days.append((day, (no_stance, *explicit), total is not None))
    tagged = Counter(stance for _, _, stance in tweets if stance is not None)
    return (lexicon.topic, tuple(days)), (lines, len(tweets), parse_errors, dict(tagged))
