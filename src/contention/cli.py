"""Command-line entry point.

Subcommands wire ingestion to analytics with reproducible output:

- ``poll``      poll topline CSV -> per-topic contention table
- ``votes``     regional vote CSV -> per-region contention table
- ``tweets``    JSONL tweet shards + hashtag lexicon -> daily timeseries
- ``quadrant``  topics with importance ratings -> quadrant points

Exit codes: 0 success, 2 data contract violation or a ``--samples`` too
large to hold (a JSON error record is written to stderr), 64 usage error.
Identical inputs and flags (seed included) produce byte-identical output;
results keep full precision internally and are rounded only when printed
(``--precision``, default 6).
Output is plain text, never colorized, so NO_COLOR needs no handling.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TextIO

from . import analytics, ingest
from .errors import ConfigError, ContentionError, EmptyInput, ResultTooLarge
from .model import contention_exclusive, sampled_from_counts

EX_OK = 0
EX_DATA = 2
EX_USAGE = 64


def _rule(want: str, ok: Callable[[Any], bool],
          read: Callable[[Any], Any] = lambda value: value) -> Callable[[Any], Any]:
    """One option's parser: ``read`` the value, then require ``ok`` of it.
    Numbers are read from their text, so a config value must be one that
    the flag would accept as typed."""
    def parse(value: Any) -> Any:
        try:
            parsed = read(value)
            if ok(parsed):
                return parsed
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"want {want}, got {value!r}")
    return parse


def _int_from(low: int) -> Callable[[Any], int]:
    return _rule(f"an integer >= {low}", lambda n: n >= low, lambda v: int(str(v)))


def _one_of(*words: str) -> Callable[[Any], str]:
    parse = _rule(" or ".join(words), lambda w: w in words)
    parse.metavar = "{" + ",".join(words) + "}"  # shown in --help
    return parse


_BOOLEAN = _rule("JSON true or false", lambda v: isinstance(v, bool))
_PATH = _rule("a non-empty path without NUL",
              lambda v: isinstance(v, str) and v != "" and "\0" not in v)

# every option: its default, and the one function that parses and checks its
# value, as a flag's argparse ``type`` and for the same key in a config file.
# ``importance_scale`` takes two values, each checked by its function.
_OPTIONS: dict[str, tuple[Any, Callable[[Any], Any]]] = {
    "out": (None, _PATH),
    "json": (False, _BOOLEAN),
    "precision": (6, _int_from(0)),
    "threads": (1, _int_from(1)),
    "normalize": ("declared", _one_of("declared", "observed")),
    "samples": (None, _int_from(1)),
    "seed": (0, _int_from(0)),
    "turnout": ("ballots", _one_of("ballots", "eligible")),
    "lexicon": (None, _PATH),
    "totals": (None, _PATH),
    "by_user": (False, _BOOLEAN),
    "error_budget": (0.001, _rule("a number in [0, 1]", lambda x: 0 <= x <= 1,
                                  lambda v: float(str(v)))),
    "importance_scale": (None, _rule("a finite number", math.isfinite,
                                     lambda v: float(str(v)))),
}

_SCHEMA_NOTES = """\
file schemas (UTF-8 CSV with RFC-4180 quoting unless noted):
  poll topline    header `topic,stance,count` or `topic,stance,percent,total`;
                  stance `__none__` is the no-answer row
  vote records    header `region,option,count`; option literals `__eligible__`
                  (eligible population), `__rejected__` (rejected ballots),
                  `__none__` (ballots counted as no stance)
  tweet stream    JSON lines: {"id", "ts" (ISO-8601, UTC or offset),
                  "user", "hashtags" (a leading '#' dropped)}
  stance lexicon  JSON: {"topic", "stances": [{"id", "label", "hashtags"}]}
  daily totals    header `date,total`, dates YYYY-MM-DD
  quadrant input  header `topic,stance,count,importance`

output schemas:
  poll      `topic,n,k,raw,normalized`
  votes     `region,n,k,raw,normalized`
  tweets    `date,n_all,n_stanced,k,raw_all,norm_all,raw_stanced,norm_stanced`
  quadrant  `topic,contention,importance`
"""


class _UsageError(Exception):
    """Missing required flag detected after config merging."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit status 64."""

    def error(self, message: str) -> NoReturn:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    notes = {"epilog": _SCHEMA_NOTES, "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = _Parser(
        prog="contention",
        description="Population-dependent contention over polls, votes, and tweet streams.",
        **notes,
    )
    sub = parser.add_subparsers(dest="cmd", metavar="{poll,votes,tweets,quadrant}")

    def command(name: str, summary: str, description: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, description=description, **notes)

    def option(p: argparse.ArgumentParser, key: str, **kwargs: Any) -> None:
        parse = _OPTIONS[key][1]
        kwargs.setdefault("metavar", getattr(parse, "metavar", None))
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, **kwargs)

    def shared(p: argparse.ArgumentParser, sampled: bool = False) -> None:
        option(p, "out", help="write records here instead of stdout")
        p.add_argument("--json", action=argparse.BooleanOptionalAction,
                       help="emit JSON-lines instead of CSV (default: CSV)")
        option(p, "precision", help="decimals for printed scores (default: 6)")
        option(p, "threads",
               help="accepted and checked (>= 1) but selects nothing: "
                    "every command runs in one thread (default: 1)")
        option(p, "normalize",
               help="normalize by the declared stance count or only the "
                    "observed nonzero one (default: declared)")
        p.add_argument("--config", type=_PATH,
                       help="JSON file mirroring these flags; explicit flags win")
        if sampled:
            option(p, "samples",
                   help="estimate by Monte Carlo with this many pair draws "
                        "instead of the closed form")
            option(p, "seed", help="RNG seed for --samples (default: 0)")

    p_poll = command("poll", "contention per poll topic",
                     "Compute contention for each topic in a poll topline CSV.")
    p_poll.add_argument("input", help="poll topline CSV")
    shared(p_poll, sampled=True)

    p_votes = command("votes", "contention per voting region",
                      "Compute contention per region (plus the __all__ aggregate) "
                      "from vote records.")
    p_votes.add_argument("input", help="vote records CSV")
    option(p_votes, "turnout",
           help="ballots: no-stance = rejected/__none__ ballots; "
                "eligible: no-stance = eligible population minus valid "
                "votes (default: ballots)")
    shared(p_votes, sampled=True)

    p_tweets = command("tweets", "daily contention timeseries from tweet shards",
                       "Tag tweets against a stance hashtag lexicon and emit the "
                       "daily contention timeseries (all-tweets and stance-holders "
                       "variants).  A summary block goes to stderr.")
    p_tweets.add_argument("inputs", nargs="+", metavar="shard.jsonl",
                          help="one or more JSONL tweet shards")
    option(p_tweets, "lexicon", help="stance lexicon JSON (required)")
    option(p_tweets, "totals", help="daily totals CSV supplying the no-stance baseline")
    p_tweets.add_argument("--by-user", dest="by_user",
                          action=argparse.BooleanOptionalAction,
                          help="count distinct users instead of tweets; users who "
                               "post conflicting stances in the window are dropped "
                               "from every group")
    option(p_tweets, "error_budget",
           help="max tolerated fraction of unparseable lines (default: 0.001)")
    shared(p_tweets)

    p_quad = command("quadrant", "contention-vs-importance points",
                     "Place topics on the contention x importance plane; importance "
                     "is rescaled linearly from the declared source scale to [0,1].")
    p_quad.add_argument("input", help="quadrant topics CSV")
    option(p_quad, "importance_scale", nargs=2, metavar=("LO", "HI"),
           help="bounds of the source's importance rating scale (required; e.g. 0 10)")
    shared(p_quad)

    return parser


def _load_config(path: str) -> dict[str, Any]:
    import json

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    cfg = {}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest not in _OPTIONS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
        cfg[dest] = _config_value(dest, value)
    return cfg


def _config_value(key: str, value: Any) -> Any:
    """A config value through its flag's parser; null only where the default
    is None."""
    default, parse = _OPTIONS[key]
    if value is None and default is None:
        return None
    try:
        if key != "importance_scale":
            return parse(value)
        if not isinstance(value, list) or len(value) != 2:
            raise argparse.ArgumentTypeError(f"want two numbers LO HI, got {value!r}")
        return [parse(v) for v in value]
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"config key {key} (--{key.replace('_', '-')}): {exc}") from None


def _effective(args: argparse.Namespace) -> dict[str, Any]:
    """Defaults, overridden by the config file, overridden by explicit flags;
    each value was checked alone when parsed, so only the rules that need
    two values are left."""
    merged = {key: default for key, (default, _) in _OPTIONS.items()}
    if getattr(args, "config", None):
        merged.update(_load_config(args.config))
    for key, value in vars(args).items():
        if key in merged and value is not None:
            merged[key] = value
    if merged["importance_scale"] is not None:
        lo, hi = merged["importance_scale"]
        if not 0 < hi - lo < math.inf:
            raise _UsageError(f"--importance-scale needs LO < HI and finite HI - LO, got {lo} {hi}")
    return merged


# -- output -----------------------------------------------------------------------

def _write_records(records: Iterable[dict[str, Any]], cfg: Mapping[str, Any]) -> None:
    """Write ``records``, at least one, built as they are written if lazy.
    Every int they hold can be written as text: the one that can outgrow the
    interpreter's digit limit, a population, is checked when it is scored."""
    precision = cfg["precision"]

    def emit(handle: TextIO) -> None:
        if cfg["json"]:
            import json

            for record in records:
                rounded = {
                    key: (round(v, precision) if isinstance(v, float) else v)
                    for key, v in record.items()
                }
                handle.write(json.dumps(rounded) + "\n")
        else:
            writer = csv.writer(handle, lineterminator="\n")
            for i, record in enumerate(records):
                if not i:
                    writer.writerow(record.keys())
                # csv.writer writes an int as str() does and None as ""
                writer.writerow([f"{v:.{precision}f}" if isinstance(v, float) else v
                                 for v in record.values()])

    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as handle:
            emit(handle)
    else:
        emit(sys.stdout)


def _score(counts, cfg: Mapping[str, Any]):
    if cfg["samples"] is not None:
        return sampled_from_counts(counts, cfg["samples"], cfg["seed"], k_mode=cfg["normalize"])
    return contention_exclusive(counts, k_mode=cfg["normalize"])


# -- subcommands --------------------------------------------------------------------

def _score_row(name: str, result) -> tuple:
    """One scored topic or region, as compact as the output allows.  A
    population with more digits than ``str()`` and ``json.dumps`` write
    raises ResultTooLarge here, so it stops the run before any output."""
    n, limit = result.population, sys.get_int_max_str_digits()
    # fewer than 3 * limit bits is fewer than limit digits: one cheap test a row
    if limit and n.bit_length() > 3 * limit and n >= 10 ** limit:
        raise ResultTooLarge(f"a result has more than {limit} digits, too many to write as text")
    return name, n, result.k, result.raw, result.normalized


def _score_records(key: str, rows: Iterable[tuple]) -> Iterator[dict[str, Any]]:
    """Each score row as its ``<key>,n,k,raw,normalized`` output record."""
    keys = (key, "n", "k", "raw", "normalized")
    return (dict(zip(keys, row)) for row in rows)


def _released(items: list[tuple]) -> Iterator[tuple]:
    """``items`` in order, each popped from the list as it is yielded, so
    the caller's topic goes as soon as it is scored; the list ends empty."""
    items.reverse()
    while items:
        yield items.pop()


def cmd_poll(args: argparse.Namespace, cfg: Mapping[str, Any]) -> int:
    topics = ingest.load_poll_topline(args.input)
    rows = [_score_row(topic, _score(counts, cfg)) for topic, counts in _released(topics)]
    _write_records(_score_records("topic", rows), cfg)
    return EX_OK


def cmd_votes(args: argparse.Namespace, cfg: Mapping[str, Any]) -> int:
    table = ingest.load_vote_records(args.input, cfg["turnout"])
    scored = analytics.region_contention(table, score=lambda counts: _score(counts, cfg))
    _write_records(_score_records("region", [_score_row(*pair) for pair in scored]), cfg)
    return EX_OK


def cmd_tweets(args: argparse.Namespace, cfg: Mapping[str, Any]) -> int:
    if not cfg["lexicon"]:
        raise _UsageError("tweets requires --lexicon")
    lexicon = ingest.StanceLexicon.from_json(cfg["lexicon"])
    totals = ingest.load_daily_totals(cfg["totals"]) if cfg["totals"] else None
    series, stats = ingest.ingest_tweets(
        args.inputs,
        lexicon,
        totals,
        by_user=cfg["by_user"],
        error_budget=cfg["error_budget"],
    )
    if not series.days:
        raise EmptyInput("no parseable tweets and no daily totals")
    points = analytics.timeseries(series, k_mode=cfg["normalize"])
    _write_records([{"date": p.date.isoformat(), "n_all": p.n_all, "n_stanced": p.n_stanced,
                     "k": p.k, "raw_all": p.raw_all, "norm_all": p.norm_all,
                     "raw_stanced": p.raw_stanced, "norm_stanced": p.norm_stanced}
                    for p in points], cfg)

    error_pct = 100.0 * stats.parse_errors / stats.lines if stats.lines else 0.0
    print(f"# tweets: {stats.parsed} parsed, {stats.parse_errors} parse errors "
          f"({error_pct:.2f}%)", file=sys.stderr)
    tagged = " ".join(f"{sid}={stats.tagged.get(sid, 0)}" for sid in lexicon.space.ids)
    print(f"# tagged: {tagged}", file=sys.stderr)
    print(f"# days: {len(series.days)}", file=sys.stderr)
    return EX_OK


def cmd_quadrant(args: argparse.Namespace, cfg: Mapping[str, Any]) -> int:
    if not cfg["importance_scale"]:
        raise _UsageError("quadrant requires --importance-scale LO HI")
    topics = ingest.load_quadrant_topics(args.input)
    points = analytics.quadrant_points(_released(topics), cfg["importance_scale"],
                                       k_mode=cfg["normalize"])
    _write_records(({"topic": p.topic, "contention": p.contention, "importance": p.importance}
                    for p in points), cfg)
    return EX_OK


_COMMANDS: dict[str, Callable[[argparse.Namespace, Mapping[str, Any]], int]] = {
    "poll": cmd_poll,
    "votes": cmd_votes,
    "tweets": cmd_tweets,
    "quadrant": cmd_quadrant,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.cmd:
        parser.error("a subcommand is required")
    try:
        return _COMMANDS[args.cmd](args, _effective(args))
    except _UsageError as exc:
        parser.error(str(exc))
    except (ContentionError, OSError, UnicodeDecodeError, MemoryError) as exc:
        import json

        # MemoryError: a --samples too large to hold; numpy raises a private
        # subclass, so the record names the builtin class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
