"""Seeded inputs for the benchmark, together with their expected answers.

Nothing here imports ``contention``.  Every expected result comes from what
the generator itself decided while writing an input (the UTC instant a tweet
was drawn at, the stance it was written with, the counts behind a CSV row),
so the answers can serve as an oracle for the program's output.  Scores are
exact ``Fraction``s computed here with the O(k) identity
``2 * sum_{i<j} g_i g_j = (sum g)^2 - sum g^2``, not with the program's code.

The same seed gives byte-identical files; every workload draws from its own
``random.Random`` seeded by ``"<workload>:<seed>"``.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

NO_STANCE = "__none__"

LEXICON = {
    "topic": "referendum",
    "stances": [
        {"id": "leave", "label": "Leave", "hashtags": ["voteleave", "leaveeu", "takecontrol"]},
        {"id": "remain", "label": "Remain", "hashtags": ["voteremain", "strongerin", "remaineu"]},
        {"id": "undecided", "label": "Undecided", "hashtags": ["euundecided", "eudebate"]},
    ],
}
STANCE_IDS = [s["id"] for s in LEXICON["stances"]]

# Shape of the tweet traffic.  Only some of these values are fixed by a
# figure: the ~2% ambiguous and ~0.03% malformed shares, the ~2e4-tag
# vocabulary and the five offsets are the benchmark's specification.  The
# new-user and stanced shares are checked against the figures quoted for a
# realistic corpus of 1e6 lines: on a 2-vCPU Xeon VM a 1e6-line
# corpus from this generator has 8.0e5 distinct users (quoted: about 1e6),
# takes 9.8-10.1 s in tweet mode with one thread (quoted: 9.3-9.6 s) and
# 12.8 s and 213 MiB peak RSS as 4 shards with --by-user (quoted: 12.0 s
# and 249 MiB; tweet mode 31 MiB in both).  The others are chosen, not
# measured: the Zipf exponent, the event-burst share, the tag-count and
# spelling weights and the home-stance share.  They decide how often a
# timestamp or hashtag string repeats, so a memoisation or parallelism
# claim must cite the corpus properties each run prints, not assume them.
WINDOW_START = datetime(2016, 5, 1, tzinfo=timezone.utc)
WINDOW_DAYS = 60
EVENT_HOURS = 12
EVENT_SHARE = 0.4  # chosen: tweets inside one of the busy event hours
VOCAB_SIZE = 20_000
ZIPF_S = 1.07  # chosen: rank-frequency exponent of the non-lexicon tags

# Offsets a timestamp may be rendered with, and how often each is used (chosen).
OFFSETS = (("Z", 0), ("+00:00", 0), ("+01:00", 3600), ("-05:00", -18000), ("+05:30", 19800))
OFFSET_WEIGHTS = (40, 15, 20, 15, 10)

AMBIGUOUS_SHARE = 0.02
MALFORMED_SHARE = 0.0003
STANCED_SHARE = 0.33  # checked, with NEW_USER_SHARE, by the --by-user peak RSS
NEW_USER_SHARE = 0.8  # checked by the distinct users per 1e6 lines
HOME_STANCE_SHARE = 0.85  # chosen: how often a user repeats their first stance


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def exclusive_score(explicit: list[int], no_stance: int) -> tuple[int, Fraction, Fraction]:
    """(n, raw, normalized) for mutually exclusive stances, k = len(explicit)."""
    k = len(explicit)
    n = sum(explicit) + no_stance
    s = sum(explicit)
    raw = Fraction(s * s - sum(g * g for g in explicit), n * n)
    normalized = raw * k / (k - 1) if k >= 2 else Fraction(0)
    return n, raw, normalized


@dataclass
class Expected:
    """Expected CSV output of one command: header plus rows of field values.

    A field value is a ``str``/``int`` compared exactly, a ``Fraction``
    compared at the printed precision, or ``None`` for an empty field.
    """

    header: list[str]
    rows: list[list[object]]


# -- tweets ------------------------------------------------------------------------

def _lexicon_variants(tag: str) -> list[str]:
    """Case and '#' spellings of one lexicon tag; all normalize to ``tag``."""
    title = tag[:1].upper() + tag[1:]
    return [tag, title, tag.upper(), "#" + tag, "#" + title]


# Chosen weights: of the five spellings above, and of 0, 1, 2 or 3
# non-lexicon tags on one tweet.
_VARIANT_CUM = list(accumulate((50, 20, 10, 15, 5)))
_TAG_COUNT_CUM = list(accumulate((35, 35, 20, 10)))


def _pick(rng: random.Random, cum: list[float]) -> int:
    """Index drawn with the weights whose running sums are ``cum``."""
    return bisect_right(cum, rng.random() * cum[-1])


@dataclass
class TweetTruth:
    """What the generator knows about every well-formed tweet it wrote."""

    day: list[date] = field(default_factory=list)
    user: list[str] = field(default_factory=list)
    stance: list[str | None] = field(default_factory=list)


def write_tweets(rng: random.Random, out_dir: Path, lines: int, shards: int) -> tuple[list[Path], TweetTruth, dict[str, float]]:
    """Write ``lines`` JSONL tweets split into ``shards`` time-ordered files.

    Instants are drawn first (per-second resolution; a share of them inside
    a few busy event hours), then rendered with one of several UTC offsets,
    so the local date of a tweet can differ from its UTC day.
    """
    window = WINDOW_DAYS * 86400
    events = [rng.randrange(window - 3600) for _ in range(EVENT_HOURS)]
    instants = sorted(
        rng.choice(events) + rng.randrange(3600) if rng.random() < EVENT_SHARE
        else rng.randrange(window)
        for _ in range(lines)
    )
    vocab = [f"tag{i}" for i in range(VOCAB_SIZE)]
    vocab_cum = list(accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(VOCAB_SIZE)))
    offset_cum = list(accumulate(OFFSET_WEIGHTS))
    epoch = int(WINDOW_START.timestamp())
    days = [WINDOW_START.date() + timedelta(days=d) for d in range(WINDOW_DAYS)]
    stance_tags = {s["id"]: s["hashtags"] for s in LEXICON["stances"]}

    users: list[str] = []
    home: list[str] = []
    truth = TweetTruth()
    ts_seen: set[str] = set()
    tag_strings: set[str] = set()
    tag_total = 0
    ambiguous = malformed = 0

    def lexicon_tag(stance: str) -> str:
        tag = rng.choice(stance_tags[stance])
        return _lexicon_variants(tag)[_pick(rng, _VARIANT_CUM)]

    paths = [out_dir / f"shard{j}.jsonl" for j in range(shards)]
    handles = [open(p, "w", encoding="utf-8") for p in paths]
    try:
        for i, t in enumerate(instants):
            if users and rng.random() >= NEW_USER_SHARE:
                u = rng.randrange(len(users))
            else:
                u = len(users)
                users.append(f"u{rng.getrandbits(40):x}{u}")
                home.append(rng.choice(STANCE_IDS))
            user = users[u]

            tags = [vocab[_pick(rng, vocab_cum)] for _ in range(_pick(rng, _TAG_COUNT_CUM))]
            stance: str | None = None
            r = rng.random()
            if r < AMBIGUOUS_SHARE:
                a, b = rng.sample(STANCE_IDS, 2)
                tags += [lexicon_tag(a), lexicon_tag(b)]
                ambiguous += 1
            elif r < AMBIGUOUS_SHARE + STANCED_SHARE:
                stance = home[u] if rng.random() < HOME_STANCE_SHARE else rng.choice(STANCE_IDS)
                tags.append(lexicon_tag(stance))
            rng.shuffle(tags)

            suffix, offset = OFFSETS[_pick(rng, offset_cum)]
            ts = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(epoch + t + offset)[:6] + suffix
            obj = {"id": str(i), "ts": ts, "user": user, "hashtags": tags}

            if rng.random() < MALFORMED_SHARE:
                malformed += 1
                kind = rng.randrange(3)
                if kind == 0:
                    text = json.dumps(obj)
                    line = text[: len(text) // 2]
                elif kind == 1:
                    obj["ts"] = f"2016-{13 + rng.randrange(80)}-01T00:00:00Z"
                    line = json.dumps(obj)
                else:
                    del obj["user"]
                    line = json.dumps(obj)
            else:
                line = json.dumps(obj)
                truth.day.append(days[t // 86400])
                truth.user.append(user)
                truth.stance.append(stance)
                ts_seen.add(ts)
                tag_strings.update(tags)
                tag_total += len(tags)
            handles[i * shards // lines].write(line + "\n")
    finally:
        for h in handles:
            h.close()

    parsed = len(truth.day)
    stances_by_user: dict[str, set[str]] = {}
    for user, stance in zip(truth.user, truth.stance):
        if stance is not None:
            stances_by_user.setdefault(user, set()).add(stance)
    properties = {
        "lines": lines,
        "distinct_ts_share": len(ts_seen) / parsed,
        "distinct_hashtag_share": len(tag_strings) / max(tag_total, 1),
        "distinct_users": len(set(truth.user)),
        "conflicting_users": sum(1 for held in stances_by_user.values() if len(held) > 1),
        "ambiguous_share": ambiguous / lines,
        "malformed_share": malformed / lines,
    }
    return paths, truth, properties


def write_totals(rng: random.Random, path: Path, truth: TweetTruth) -> dict[date, int]:
    """Daily totals at or above each day's parsed tweets; two tweet days
    get no total, and one total-only day precedes the window."""
    per_day = Counter(truth.day)
    days = sorted(per_day)
    dropped = set(rng.sample(days, 2))
    totals = {d: c + rng.randint(0, c) for d, c in per_day.items() if d not in dropped}
    totals[WINDOW_START.date() - timedelta(days=1)] = rng.randint(500, 5000)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,total\n")
        for d in sorted(totals):
            handle.write(f"{d.isoformat()},{totals[d]}\n")
    return totals


TWEET_HEADER = ["date", "n_all", "n_stanced", "k", "raw_all", "norm_all", "raw_stanced", "norm_stanced"]


def expected_tweets(truth: TweetTruth, totals: dict[date, int] | None, by_user: bool) -> Expected:
    """The daily timeseries the ``tweets`` command must print."""
    k = len(STANCE_IDS)
    explicit: dict[date, Counter] = {d: Counter() for d in truth.day}
    if by_user:
        held: dict[str, set[str]] = {}
        for user, stance in zip(truth.user, truth.stance):
            if stance is not None:
                held.setdefault(user, set()).add(stance)
        seen: set[tuple[date, str, str]] = set()
        for d, user, stance in zip(truth.day, truth.user, truth.stance):
            if stance is not None and len(held[user]) == 1 and (d, stance, user) not in seen:
                seen.add((d, stance, user))
                explicit[d][stance] += 1
    else:
        for d, stance in zip(truth.day, truth.stance):
            if stance is not None:
                explicit[d][stance] += 1
    days = set(explicit) | set(totals or ())
    rows = []
    for d in sorted(days):
        g = [explicit.get(d, Counter())[s] for s in STANCE_IDS]
        n_stanced = sum(g)
        total = (totals or {}).get(d)
        n_all = raw_all = norm_all = raw_stanced = norm_stanced = None
        if total is not None:
            n_all = total
            if total > 0:
                _, raw_all, norm_all = exclusive_score(g, total - n_stanced)
        if n_stanced > 0:
            _, raw_stanced, norm_stanced = exclusive_score(g, 0)
        rows.append([d.isoformat(), n_all, n_stanced, k, raw_all, norm_all, raw_stanced, norm_stanced])
    return Expected(TWEET_HEADER, rows)


def write_lexicon(path: Path) -> None:
    path.write_text(json.dumps(LEXICON), encoding="utf-8")


# -- tables --------------------------------------------------------------------------

SCORE_HEADER = ["n", "k", "raw", "normalized"]


def _random_counts(rng: random.Random, k: int, hi: int) -> list[int]:
    counts = [rng.randint(0, hi) if rng.random() < 0.9 else 0 for _ in range(k)]
    counts[rng.randrange(k)] += 1  # never an empty population
    return counts


def write_poll_counts(rng: random.Random, path: Path, topics: int, k_max: int) -> tuple[int, Expected]:
    rows = 0
    expected = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("topic,stance,count\n")
        for t in range(topics):
            topic = f"q{t:06d}"
            k = rng.randint(2, k_max)
            g = _random_counts(rng, k, 2000)
            for i, c in enumerate(g):
                handle.write(f"{topic},s{i + 1},{c}\n")
            g0 = 0
            if rng.random() < 0.7:
                g0 = rng.randint(0, 500)
                handle.write(f"{topic},{NO_STANCE},{g0}\n")
                rows += 1
            rows += k
            n, raw, norm = exclusive_score(g, g0)
            expected.append([topic, n, k, raw, norm])
    return rows, Expected(["topic"] + SCORE_HEADER, expected)


def write_poll_percent(rng: random.Random, path: Path, topics: int) -> tuple[int, Expected]:
    """Percent-form topline; effective counts are round-half-even of
    percent * total / 100, the rule the file schema declares."""
    rows = 0
    expected = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("topic,stance,percent,total\n")
        for t in range(topics):
            topic = f"p{t:05d}"
            k = rng.randint(2, 6)
            raw_counts = _random_counts(rng, k + 1, 1000)
            total = sum(raw_counts)
            effective = []
            for i, c in enumerate(raw_counts):
                pct = f"{100 * c / total:.1f}"
                stance = NO_STANCE if i == 0 else f"s{i}"
                handle.write(f"{topic},{stance},{pct},{total}\n")
                effective.append(round(Fraction(pct) * total / 100))
            rows += k + 1
            n, raw, norm = exclusive_score(effective[1:], effective[0])
            expected.append([topic, n, k, raw, norm])
    return rows, Expected(["topic"] + SCORE_HEADER, expected)


def write_votes(rng: random.Random, path: Path, regions: int, options: int) -> tuple[int, Expected]:
    """Vote records with eligible sidecars; scored with ``--turnout eligible``."""
    rows = 0
    per_region = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("region,option,count\n")
        for r in range(regions):
            region = f"r{r:05d}"
            g = _random_counts(rng, options, 5000)
            rejected = rng.randint(0, 200)
            none_ballots = rng.randint(0, 50) if rng.random() < 0.3 else None
            cast = sum(g) + rejected + (none_ballots or 0)
            eligible = cast + rng.randint(0, cast)
            for i, c in enumerate(g):
                handle.write(f"{region},o{i + 1:02d},{c}\n")
            handle.write(f"{region},__rejected__,{rejected}\n")
            if none_ballots is not None:
                handle.write(f"{region},{NO_STANCE},{none_ballots}\n")
                rows += 1
            handle.write(f"{region},__eligible__,{eligible}\n")
            rows += options + 2
            per_region.append((region, g, eligible - sum(g)))
    agg = [sum(col) for col in zip(*(g for _, g, _ in per_region))]
    per_region.append(("__all__", agg, sum(g0 for _, _, g0 in per_region)))
    expected = []
    for region, g, g0 in sorted(per_region):
        n, raw, norm = exclusive_score(g, g0)
        expected.append([region, n, options, raw, norm])
    return rows, Expected(["region"] + SCORE_HEADER, expected)


def write_quadrant(rng: random.Random, path: Path, topics: int) -> tuple[int, Expected]:
    """Topics with a 0..10 importance rating; scored with scale 0 10."""
    rows = 0
    expected = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("topic,stance,count,importance\n")
        for t in range(topics):
            topic = f"c{t:06d}"
            k = rng.randint(2, 8)
            g = _random_counts(rng, k, 3000)
            importance = f"{rng.uniform(0, 10):.2f}"
            for i, c in enumerate(g):
                handle.write(f"{topic},s{i + 1},{c},{importance}\n")
            g0 = rng.randint(0, 300)
            handle.write(f"{topic},{NO_STANCE},{g0},{importance}\n")
            rows += k + 1
            _, _, norm = exclusive_score(g, g0)
            expected.append([topic, norm, Fraction(importance) / 10])
    return rows, Expected(["topic", "contention", "importance"], expected)


# -- model kernels ---------------------------------------------------------------------

def kernel_spec(rng: random.Random, people: int, k: int, draws: int) -> tuple[dict, dict]:
    """Input for the model-kernels workload and its exact answers.

    People hold no stance (20%) or one to three of k stances under a random
    overlapping conflict relation; a separate exclusive count vector feeds
    the closed form and the count sampler.
    """
    ids = [f"s{i + 1}" for i in range(k)]
    pairs = [(ids[i], ids[j]) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    if not pairs:
        pairs = [(ids[0], ids[1])]
    held = [[] if rng.random() < 0.2 else sorted(rng.sample(ids, rng.randint(1, 3))) for _ in range(people)]
    counts = [rng.randint(1, 10**6) for _ in range(k + 1)]
    spec = {
        "ids": ids,
        "conflicts": pairs,
        "held": held,
        "counts": dict(zip(ids, counts[1:])),
        "no_stance": counts[0],
        "draws": draws,
        "seed": rng.randrange(2**31),
    }

    clash = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
    signatures = Counter(tuple(h) for h in held)
    hits = 0
    for sa, na in signatures.items():
        for sb, nb in signatures.items():
            if any((a, b) in clash for a in sa for b in sb):
                hits += na * nb
    general_raw = Fraction(hits, people * people)
    n, closed_raw, closed_norm = exclusive_score(counts[1:], counts[0])
    answers = {
        "people": people,
        "k": k,
        "general_raw": general_raw,
        "general_norm": general_raw * k / (k - 1),
        "counts_n": n,
        "closed_raw": closed_raw,
        "closed_norm": closed_norm,
    }
    return spec, answers
