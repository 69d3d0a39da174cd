"""The contract every value type keeps: equality, hashing, repr, cloning,
frozen fields and construction.

Runs under pytest, or without it as a plain script:
``PYTHONPATH=src python tests/test_value_types.py``.
"""

from __future__ import annotations

import copy
import pickle
from datetime import date
from typing import NamedTuple

from contention.analytics import QuadrantPoint, SeriesPoint
from contention.ingest import (
    DailySeries,
    DaySlice,
    RegionRow,
    RegionTable,
    StanceLexicon,
    StreamStats,
)
from contention.model import (
    AssignmentSet,
    ContentionResult,
    StanceCounts,
    StanceSpace,
    SubpopulationFilter,
)

try:
    import pytest
except ImportError:  # run as a plain script
    pytest = None

SPACE = StanceSpace.exclusive(["a", "b"])
COUNTS = StanceCounts(SPACE, (1, 2, 3))
DAY = date(2016, 6, 1)
STANCE_A = SubpopulationFilter.of(stance=["a"])
MATRIX = "((False, False, False), (False, False, True), (False, True, False))"
SPACE_TEXT = f"StanceSpace(ids=('a', 'b'), conflicts={MATRIX})"
COUNTS_TEXT = f"StanceCounts(space={SPACE_TEXT}, counts=(1, 2, 3), filter=None)"


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


CLONES = (_pickled, copy.copy, copy.deepcopy)


class Case(NamedTuple):
    made: object  # built by keyword, every argument with a default left out
    equal: object  # built positionally with every argument
    unequal: object
    text: str  # repr(made)
    fields: tuple[str, ...]  # in constructor order
    clones: tuple = CLONES  # the clones that work
    hashes_like: object = None  # an unequal value whose hash is made's


CASES = {
    "StanceSpace": Case(
        StanceSpace(ids=("a", "b"), conflicts=SPACE.conflicts),
        StanceSpace(["a", "b"], [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        StanceSpace.from_conflict_pairs(["a", "b"], []),
        SPACE_TEXT,
        ("ids", "conflicts"),
    ),
    "SubpopulationFilter": Case(
        SubpopulationFilter(),
        SubpopulationFilter(()),
        STANCE_A,
        "SubpopulationFilter(criteria=())",
        ("criteria",),
    ),
    "StanceCounts": Case(
        StanceCounts(space=SPACE, counts=(1, 2, 3)),
        StanceCounts(SPACE, [1, 2, 3], None),
        StanceCounts(SPACE, (1, 2, 3), STANCE_A),
        COUNTS_TEXT,
        ("space", "counts", "filter"),
    ),
    "AssignmentSet": Case(
        AssignmentSet(space=SPACE, assignments=({1}, {0}, {1})),
        AssignmentSet(SPACE, (frozenset({1}), frozenset({0}), frozenset({1})), None, None),
        AssignmentSet(SPACE, ({1}, {0}, {2})),
        f"AssignmentSet(space={SPACE_TEXT}, assignments=(frozenset({{1}}), frozenset({{0}}), "
        "frozenset({1})), attributes=None, filter=None)",
        ("space", "assignments", "attributes", "filter"),
    ),
    "ContentionResult": Case(
        ContentionResult(raw=0.25, normalized=0.5, k=2, population=4,
                         method="exclusive-closed-form"),
        # the filter is left out of equality and hashing
        ContentionResult(0.25, 0.5, 2, 4, "exclusive-closed-form", None, None, STANCE_A),
        ContentionResult(0.25, 0.5, 2, 4, "general-sampled", 10, 0),
        "ContentionResult(raw=0.25, normalized=0.5, k=2, population=4, "
        "method='exclusive-closed-form', samples=None, seed=None, filter=None)",
        ("raw", "normalized", "k", "population", "method", "samples", "seed", "filter"),
    ),
    "StanceLexicon": Case(
        StanceLexicon(topic="t", space=SPACE, tag_index={"x": "a"}),
        StanceLexicon("t", SPACE, {"x": "a"}),
        StanceLexicon("t", SPACE, {"x": "b"}),
        f"StanceLexicon(topic='t', space={SPACE_TEXT}, tag_index=mappingproxy({{'x': 'a'}}))",
        ("topic", "space", "tag_index"),
        # the read-only tag index can be neither pickled nor deep-copied
        clones=(copy.copy,),
        # and is left out of the hash
        hashes_like=StanceLexicon("t", SPACE, {"x": "b"}),
    ),
    "StreamStats": Case(
        StreamStats(),
        StreamStats(0, 0, {}),
        StreamStats(lines=1),
        "StreamStats(lines=0, parse_errors=0, tagged={})",
        ("lines", "parse_errors", "tagged"),
    ),
    "DaySlice": Case(
        DaySlice(date=DAY, counts=COUNTS),
        DaySlice(DAY, COUNTS, True),
        DaySlice(DAY, COUNTS, False),
        f"DaySlice(date=datetime.date(2016, 6, 1), counts={COUNTS_TEXT}, has_total=True)",
        ("date", "counts", "has_total"),
    ),
    "DailySeries": Case(
        DailySeries(topic="t", days=(DaySlice(DAY, COUNTS),)),
        DailySeries("t", (DaySlice(DAY, COUNTS, True),)),
        DailySeries("t", ()),
        f"DailySeries(topic='t', days=(DaySlice(date=datetime.date(2016, 6, 1), "
        f"counts={COUNTS_TEXT}, has_total=True),))",
        ("topic", "days"),
    ),
    "RegionRow": Case(
        RegionRow(region="r", counts=COUNTS),
        RegionRow("r", COUNTS, None),
        RegionRow("r", COUNTS, 9),
        f"RegionRow(region='r', counts={COUNTS_TEXT}, eligible=None)",
        ("region", "counts", "eligible"),
    ),
    "RegionTable": Case(
        RegionTable(topic="t", rows=(RegionRow("r", COUNTS),)),
        RegionTable("t", (RegionRow("r", COUNTS), RegionRow("__all__", COUNTS))),
        RegionTable("u", (RegionRow("r", COUNTS),)),
        f"RegionTable(topic='t', rows=(RegionRow(region='r', counts={COUNTS_TEXT}, "
        f"eligible=None), RegionRow(region='__all__', counts={COUNTS_TEXT}, eligible=None)))",
        ("topic", "rows"),
    ),
    "SeriesPoint": Case(
        SeriesPoint(date=DAY, n_all=None, n_stanced=5, k=2, raw_all=None, norm_all=None,
                    raw_stanced=0.48, norm_stanced=0.96),
        SeriesPoint(DAY, None, 5, 2, None, None, 0.48, 0.96),
        SeriesPoint(DAY, 6, 5, 2, 0.4, 0.8, 0.48, 0.96),
        "SeriesPoint(date=datetime.date(2016, 6, 1), n_all=None, n_stanced=5, k=2, "
        "raw_all=None, norm_all=None, raw_stanced=0.48, norm_stanced=0.96)",
        ("date", "n_all", "n_stanced", "k", "raw_all", "norm_all", "raw_stanced",
         "norm_stanced"),
    ),
    "QuadrantPoint": Case(
        QuadrantPoint(topic="t", contention=0.5, importance=0.25),
        QuadrantPoint("t", 0.5, 0.25),
        QuadrantPoint("t", 0.5, 0.75),
        "QuadrantPoint(topic='t', contention=0.5, importance=0.25)",
        ("topic", "contention", "importance"),
    ),
}


def _raises(error, action):
    try:
        action()
    except error:
        return True
    return False


def check_value_type(name: str) -> None:
    made, equal, unequal, text, fields, clones, hashes_like = CASES[name]
    cls = type(made)
    assert cls.__name__ == name and type(equal) is cls and type(unequal) is cls
    assert cls.__match_args__ == fields

    assert made == equal and not made != equal
    assert made != unequal and not made == unequal
    assert made != tuple(getattr(made, field) for field in fields)
    assert repr(made) == text
    for clone in clones:
        cloned = clone(made)
        assert type(cloned) is cls and cloned == made and repr(cloned) == text

    if cls is StreamStats:  # mutable, so unhashable
        assert _raises(TypeError, lambda: hash(made))
        stats = StreamStats()
        stats.lines += 1
        assert stats == unequal
        return
    assert hash(made) == hash(equal)
    assert {made, equal} == {made}
    if hashes_like is not None:
        assert hashes_like != made and hash(hashes_like) == hash(made)
    for field in fields:
        value = getattr(made, field)
        assert _raises(AttributeError, lambda: setattr(made, field, value))
        assert _raises(AttributeError, lambda: delattr(made, field))
        assert getattr(made, field) is value


if pytest is not None:
    @pytest.mark.parametrize("name", CASES)
    def test_value_type_contract(name):
        check_value_type(name)


if __name__ == "__main__":
    for name in CASES:
        check_value_type(name)
    print(f"{len(CASES)} value types keep their contract")
