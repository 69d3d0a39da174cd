"""Population-dependent contention scoring.

Contention is the probability that two people drawn with replacement from
a population hold conflicting stances on a topic.  The package computes
it exactly (closed form for mutually exclusive stances, signature-based
counting for overlapping ones), estimates it by seeded sampling, and
derives the usual views: daily timeseries from hashtag-tagged tweets,
per-region tables from vote records, turnout adjustment, and
contention-vs-importance quadrant points.
"""

from .analytics import (
    QuadrantPoint,
    SeriesPoint,
    quadrant_points,
    region_contention,
    timeseries,
)
from .errors import ContentionError
from .ingest import (
    ALL_REGIONS,
    DailySeries,
    DaySlice,
    RegionRow,
    RegionTable,
    StanceLexicon,
    ingest_tweets,
    load_daily_totals,
    load_poll_topline,
    load_quadrant_topics,
    load_vote_records,
    turnout_adjust,
)
from .model import (
    NO_STANCE,
    AssignmentSet,
    ContentionResult,
    StanceCounts,
    StanceSpace,
    SubpopulationFilter,
    contention_exclusive,
    contention_general,
    contention_sampled,
    max_contention,
    normalize_contention,
    restrict,
    sampled_from_counts,
)

__all__ = [
    "ALL_REGIONS",
    "AssignmentSet",
    "ContentionError",
    "ContentionResult",
    "DailySeries",
    "DaySlice",
    "NO_STANCE",
    "QuadrantPoint",
    "RegionRow",
    "RegionTable",
    "SeriesPoint",
    "StanceCounts",
    "StanceLexicon",
    "StanceSpace",
    "SubpopulationFilter",
    "contention_exclusive",
    "contention_general",
    "contention_sampled",
    "ingest_tweets",
    "load_daily_totals",
    "load_poll_topline",
    "load_quadrant_topics",
    "load_vote_records",
    "max_contention",
    "normalize_contention",
    "quadrant_points",
    "region_contention",
    "restrict",
    "sampled_from_counts",
    "timeseries",
    "turnout_adjust",
]

__version__ = "0.1.0"
