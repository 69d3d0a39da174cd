"""Derived views: daily trends, per-region tables, and
contention-vs-importance quadrant points.

Everything here is a pure transformation over immutable inputs; per-day
and per-region work is independent and the output order is fixed (sorted
by date or region id).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Sequence

from .errors import ContentionError, ImportanceOutOfDeclaredRange, MissingImportance
from .ingest import ALL_REGIONS, DailySeries, RegionTable, all_regions_row
from .model import ContentionResult, KMode, StanceCounts, _norm_k, contention_exclusive


@dataclass(frozen=True)
class SeriesPoint:
    """One day of the two contention trends.

    ``*_all`` scores include the no-stance group (absent when the day has
    no sample total); ``*_stanced`` scores cover only the people with an
    explicit stance (absent when nobody was tagged that day).
    """

    date: date
    n_all: int | None
    n_stanced: int
    k: int
    raw_all: float | None
    norm_all: float | None
    raw_stanced: float | None
    norm_stanced: float | None


def timeseries(series: DailySeries, *, k_mode: KMode = "declared") -> list[SeriesPoint]:
    """Daily contention among everyone and among stance-holders only."""
    points = []
    for day in series.days:
        counts = day.counts
        n_stanced = sum(counts.explicit)
        raw_all = norm_all = raw_stanced = norm_stanced = None
        n_all = counts.total if day.has_total else None
        k = _norm_k(counts.space.k, counts.observed_k, k_mode)
        if day.has_total and counts.total > 0:
            result = contention_exclusive(counts, k_mode=k_mode)
            raw_all, norm_all = result.raw, result.normalized
        if n_stanced > 0:
            result = contention_exclusive(counts.with_no_stance(0), k_mode=k_mode)
            raw_stanced, norm_stanced = result.raw, result.normalized
        points.append(
            SeriesPoint(day.date, n_all, n_stanced, k, raw_all, norm_all, raw_stanced, norm_stanced)
        )
    return points


def region_contention(
    table: RegionTable,
    *,
    score: Callable[[StanceCounts], ContentionResult] | None = None,
) -> list[tuple[str, ContentionResult]]:
    """Contention per region plus the ``__all__`` aggregate, sorted by id.

    ``score`` replaces the closed form at the declared k, e.g. with a
    sampled estimate or an observed-k score.
    """
    if score is None:
        score = contention_exclusive
    rows = list(table.rows)
    if all(r.region != ALL_REGIONS for r in rows):
        rows.append(all_regions_row(rows))
    return [(r.region, score(r.counts)) for r in sorted(rows, key=lambda r: r.region)]


@dataclass(frozen=True)
class QuadrantPoint:
    """One topic in the contention-vs-importance plane, both axes in [0, 1]."""

    topic: str
    contention: float
    importance: float


def quadrant_points(
    rows: Iterable[tuple[str, StanceCounts, float | None]],
    scale: Sequence[float],
    *,
    k_mode: KMode = "declared",
    on_error: str = "raise",
) -> tuple[list[QuadrantPoint], list[tuple[str, str]]]:
    """Place topics on the contention x importance plane.

    ``scale`` declares the source's rating bounds (e.g. 0..10); ratings
    are mapped linearly onto [0, 1].  No scalar controversy value is
    produced: the two axes are reported as-is.  With ``on_error="skip"``
    bad topics are returned in the rejects list instead of raising, so
    every input topic lands in exactly one of the two outputs.
    """
    lo, hi = float(scale[0]), float(scale[1])
    if not lo < hi:
        raise ValueError(f"importance scale must satisfy lo < hi, got ({lo}, {hi})")
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    points: list[QuadrantPoint] = []
    rejects: list[tuple[str, str]] = []
    for topic, counts, importance in rows:
        try:
            if importance is None:
                raise MissingImportance(f"topic {topic!r} has no importance rating")
            if not lo <= importance <= hi:
                raise ImportanceOutOfDeclaredRange(
                    f"topic {topic!r}: importance {importance} outside [{lo}, {hi}]"
                )
            result = contention_exclusive(counts, k_mode=k_mode)
        except ContentionError as exc:
            if on_error == "raise":
                raise
            rejects.append((topic, f"{type(exc).__name__}: {exc}"))
            continue
        points.append(QuadrantPoint(topic, result.normalized, (importance - lo) / (hi - lo)))
    return points, rejects
