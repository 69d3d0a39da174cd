"""Analytics: timeseries variants, regional tables, turnout, quadrant points."""

import math
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contention.analytics import (
    QuadrantPoint,
    quadrant_points,
    region_contention,
    timeseries,
)
from contention.errors import (
    EligibleLessThanVotes,
    EmptyInput,
    ImportanceOutOfDeclaredRange,
    MissingImportance,
)
from contention.ingest import (
    ALL_REGIONS,
    DailySeries,
    DaySlice,
    RegionRow,
    RegionTable,
    turnout_adjust,
)
from contention.model import StanceCounts, StanceSpace, contention_exclusive

TWO = StanceSpace.exclusive(["a", "b"])


def day(d, counts, has_total=True):
    return DaySlice(date.fromisoformat(d), StanceCounts(TWO, counts), has_total)


def split_for_normalized(target: float, scale: int = 10**6) -> tuple[int, int]:
    """Invert norm = 4ab/(a+b)^2 for a two-stance split with no g0."""
    a = round(scale * (1 + math.sqrt(1 - target)) / 2)
    return a, scale - a


class TestTimeseries:
    def test_worked_example(self):
        series = DailySeries("t", (day("2016-01-01", (950, 30, 20)),))
        [point] = timeseries(series)
        assert point.n_all == 1000
        assert point.n_stanced == 50
        assert point.raw_all == pytest.approx(0.0012)
        assert point.norm_all == pytest.approx(0.0024)
        assert point.raw_stanced == pytest.approx(0.48)
        assert point.norm_stanced == pytest.approx(0.96)

    def test_variants_coincide_without_no_stance_group(self):
        series = DailySeries("t", (day("2016-01-01", (0, 30, 20)),))
        [point] = timeseries(series)
        assert point.norm_all == point.norm_stanced

    def test_missing_total_blanks_all_variant(self):
        series = DailySeries("t", (day("2016-01-01", (0, 30, 20), has_total=False),))
        [point] = timeseries(series)
        assert point.n_all is None and point.raw_all is None and point.norm_all is None
        assert point.norm_stanced == pytest.approx(0.96)

    def test_zero_tagged_day_has_absent_stanced_variant(self):
        series = DailySeries("t", (day("2016-01-01", (100, 0, 0)),))
        [point] = timeseries(series)
        assert point.norm_all == 0.0
        assert point.n_stanced == 0
        assert point.raw_stanced is None and point.norm_stanced is None

    def test_unknown_k_mode_rejected_on_a_day_without_scores(self):
        series = DailySeries("t", (day("2016-01-01", (0, 0, 0), has_total=False),))
        with pytest.raises(ValueError, match="k_mode"):
            timeseries(series, k_mode="bogus")

    def test_dress_poll_reference_level(self):
        # the published poll's stance split, back-solved from its score
        a, b = split_for_normalized(0.88)
        series = DailySeries("dress", (day("2015-02-27", (0, a, b)),))
        [point] = timeseries(series)
        assert round(point.norm_stanced, 2) == 0.88

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_stanced_variant_dominates(self, g0, g1, g2):
        series = DailySeries("t", (day("2016-01-01", (g0, g1, g2)),))
        [point] = timeseries(series)
        assert point.norm_stanced > point.norm_all


# 2016 U.S. presidential shares in basis points of ballots cast, from the
# certified state tallies (six reported categories).
STATE_SHARES = {
    #        trump clinton johnson stein mcmullin other
    "UT": (4554, 2746, 350, 83, 2154, 113),
    "NM": (4004, 4826, 934, 124, 0, 112),
    "CA": (3162, 6173, 339, 184, 0, 142),
    "TX": (5223, 4324, 316, 80, 15, 42),
    "FL": (4902, 4782, 218, 68, 0, 30),
    "WY": (6817, 2188, 519, 98, 0, 378),
    "DC": (409, 9086, 164, 136, 0, 205),
    "MA": (3281, 6001, 415, 141, 0, 162),
}

SIX = StanceSpace.exclusive(["trump", "clinton", "johnson", "stein", "mcmullin", "other"])


def two_way_table():
    rows = []
    for state, (t, c, *rest) in STATE_SHARES.items():
        rows.append(RegionRow(state, StanceCounts(TWO, (sum(rest), t, c))))
    return RegionTable("us2016", tuple(rows))


def six_way_table():
    rows = [
        RegionRow(state, StanceCounts(SIX, (0, *shares)))
        for state, shares in STATE_SHARES.items()
    ]
    return RegionTable("us2016", tuple(rows))


class TestRegionContention:
    def test_gibraltar(self):
        table = RegionTable(
            "brexit",
            (RegionRow("gibraltar", StanceCounts(TWO, (0, 41, 959))),),
        )
        scored = dict(region_contention(table))
        assert round(scored["gibraltar"].normalized, 2) == 0.16

    def test_single_candidate_region_is_zero(self):
        table = RegionTable("t", (RegionRow("r", StanceCounts(TWO, (0, 100, 0))),))
        scored = dict(region_contention(table))
        assert scored["r"].raw == 0.0

    def test_aggregate_added_and_consistent(self):
        table = RegionTable(
            "t",
            (
                RegionRow("r1", StanceCounts(TWO, (1, 2, 3))),
                RegionRow("r2", StanceCounts(TWO, (4, 5, 6))),
            ),
        )
        scored = dict(region_contention(table))
        summed = StanceCounts(TWO, (5, 7, 9))
        assert scored[ALL_REGIONS].raw == contention_exclusive(summed).raw

    def test_output_sorted_by_region(self):
        table = RegionTable(
            "t",
            (
                RegionRow("zz", StanceCounts(TWO, (0, 1, 1))),
                RegionRow("aa", StanceCounts(TWO, (0, 1, 1))),
            ),
        )
        names = [region for region, _ in region_contention(table)]
        assert names == sorted(names)

    def test_table_without_rows_is_empty_input(self):
        with pytest.raises(EmptyInput, match="region table 't' has no rows"):
            region_contention(RegionTable("t", ()))

    def test_six_way_rank_reversal(self):
        """Two-way contention puts the third-party-heavy state near the
        bottom; six-way flips it to the top."""
        two_way = {r: res.normalized for r, res in region_contention(two_way_table())
                   if r != ALL_REGIONS}
        six_way = {r: res.normalized for r, res in region_contention(six_way_table())
                   if r != ALL_REGIONS}
        states_only = {s: v for s, v in two_way.items() if s != "DC"}
        assert min(states_only, key=states_only.get) == "UT"
        assert two_way["DC"] < two_way["UT"]  # "nearly" the lowest, not the lowest
        assert max(six_way, key=six_way.get) == "UT"
        assert six_way["UT"] == pytest.approx(0.803, abs=0.01)


class TestTurnoutAdjust:
    # certified national two-candidate tallies and ballots cast
    CLINTON = 65_853_514
    TRUMP = 62_984_828
    BALLOTS = 136_669_276
    VEP = 230_585_915  # eligible-population estimate for the same election

    def national_counts(self):
        others = self.BALLOTS - self.CLINTON - self.TRUMP
        return StanceCounts(TWO, (others, self.CLINTON, self.TRUMP))

    def test_two_candidate_contention_among_voters(self):
        result = contention_exclusive(self.national_counts())
        assert round(result.normalized, 2) == 0.89

    def test_turnout_drops_contention(self):
        adjusted = turnout_adjust(self.national_counts(), eligible=self.VEP)
        result = contention_exclusive(adjusted)
        assert round(result.normalized, 2) == 0.31
        assert adjusted.total == self.VEP

    def test_eligible_equal_to_votes_keeps_contention(self):
        counts = StanceCounts(TWO, (0, 30, 20))
        adjusted = turnout_adjust(counts, eligible=50)
        assert adjusted == counts

    def test_eligible_below_population(self):
        with pytest.raises(EligibleLessThanVotes):
            turnout_adjust(StanceCounts(TWO, (10, 30, 20)), eligible=55)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=5000),
    )
    def test_turnout_monotonicity(self, g0, g1, g2, slack, more):
        counts = StanceCounts(TWO, (g0, g1, g2))
        base = counts.total + slack
        low = contention_exclusive(turnout_adjust(counts, base))
        high = contention_exclusive(turnout_adjust(counts, base + more))
        assert high.raw <= low.raw


class TestQuadrantPoints:
    def make_rows(self):
        parks = StanceCounts(TWO, (0, *split_for_normalized(0.26)))
        checks = StanceCounts(TWO, (0, *split_for_normalized(0.39)))
        return [("parks", parks, 6.0), ("background-checks", checks, 8.5)]

    def test_reported_splits_reproduce_scores(self):
        points = quadrant_points(self.make_rows(), scale=(0, 10))
        by_topic = {p.topic: p for p in points}
        assert abs(by_topic["parks"].contention - 0.26) < 0.01
        assert abs(by_topic["background-checks"].contention - 0.39) < 0.01
        assert by_topic["parks"].importance == pytest.approx(0.6)

    def test_both_axes_maximal(self):
        rows = [("split", StanceCounts(TWO, (0, 500, 500)), 10.0)]
        [point] = quadrant_points(rows, scale=(0, 10))
        assert point == QuadrantPoint("split", 1.0, 1.0)

    def test_missing_importance_raises(self):
        rows = [("t", StanceCounts(TWO, (0, 1, 1)), None)]
        with pytest.raises(MissingImportance):
            quadrant_points(rows, scale=(0, 10))

    def test_out_of_range_importance(self):
        rows = [("t", StanceCounts(TWO, (0, 1, 1)), 11.0)]
        with pytest.raises(ImportanceOutOfDeclaredRange):
            quadrant_points(rows, scale=(0, 10))

    @pytest.mark.parametrize("scale", [(5, 5), (-1.7e308, 1.7e308)])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            quadrant_points([], scale=scale)
