"""Derived views: daily trends, per-region tables, and
contention-vs-importance quadrant points.

Everything here is a pure transformation over immutable inputs; per-day
and per-region work is independent and the output order is fixed (sorted
by date or region id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import EmptyInput, ImportanceOutOfDeclaredRange, MissingImportance
from .ingest import DailySeries, RegionTable
from .model import ContentionResult, KMode, StanceCounts, _norm_k, contention_exclusive

if TYPE_CHECKING:
    from datetime import date


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
        k = _norm_k(counts, k_mode)
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
    """Contention per region, the table's ``__all__`` aggregate among them,
    sorted by id.

    ``score`` replaces the closed form at the declared k, e.g. with a
    sampled estimate or an observed-k score.  A table with no rows raises
    EmptyInput.
    """
    if score is None:
        score = contention_exclusive
    if not table.rows:
        raise EmptyInput(f"region table {table.topic!r} has no rows")
    return [(r.region, score(r.counts)) for r in sorted(table.rows, key=lambda r: r.region)]


@dataclass(frozen=True, slots=True)
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
) -> list[QuadrantPoint]:
    """Place topics on the contention x importance plane.

    ``scale`` declares the source's rating bounds (e.g. 0..10); ratings
    are mapped linearly onto [0, 1].  No scalar controversy value is
    produced: the two axes are reported as-is.  The first bad topic
    raises.
    """
    lo, hi = float(scale[0]), float(scale[1])
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"importance scale needs lo < hi and finite hi - lo, got ({lo}, {hi})")
    points: list[QuadrantPoint] = []
    for topic, counts, importance in rows:
        if importance is None:
            raise MissingImportance(f"topic {topic!r} has no importance rating")
        if not lo <= importance <= hi:
            raise ImportanceOutOfDeclaredRange(
                f"topic {topic!r}: importance {importance} outside [{lo}, {hi}]"
            )
        result = contention_exclusive(counts, k_mode=k_mode)
        points.append(QuadrantPoint(topic, result.normalized, (importance - lo) / (hi - lo)))
    return points
