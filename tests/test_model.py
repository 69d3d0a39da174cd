"""Core model: spec'd examples with frozen expected values, plus contracts."""

import copy
import math
import pickle
import re
from dataclasses import fields
from datetime import date
from functools import partial

import pytest

from contention import model
from contention.analytics import timeseries
from contention.errors import EmptyPopulation, NonExclusiveSpace, UnknownAttribute
from contention.ingest import DailySeries, DaySlice
from contention.model import (
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

from conftest import brute_force_counts_raw

TWO = StanceSpace.exclusive(["a", "b"])


def counts(*values, space=None):
    return StanceCounts(space or TWO, values)


#: 50 people hold "a" and 4 hold nothing: 1 of the 2 declared stances is observed
SOME = counts(4, 50, 0)
SOME_PEOPLE = AssignmentSet.from_stance_ids(TWO, [["a"]] * 50 + [[]] * 4)
SERIES = DailySeries("t", (DaySlice(date(2016, 1, 1), SOME, True),))

#: each scorer with an input, called as ``score(data, k_mode=...)``
SCORERS = {
    "exclusive": (contention_exclusive, SOME),
    "general": (contention_general, SOME_PEOPLE),
    "sampled": (partial(contention_sampled, samples=100, seed=3), SOME_PEOPLE),
    "sampled-counts": (partial(sampled_from_counts, samples=100, seed=3), SOME),
}


class TestExclusiveClosedForm:
    def test_uniform_two_stance_hits_max(self):
        result = contention_exclusive(counts(0, 50, 50))
        assert result.raw == 0.5
        assert result.normalized == 1.0
        assert result.method == "exclusive-closed-form"

    def test_brexit_split(self):
        result = contention_exclusive(counts(0, 519, 481))
        assert math.isclose(result.normalized, 0.998556, abs_tol=1e-12)
        assert round(result.normalized, 2) == 1.00

    def test_gibraltar_split(self):
        result = contention_exclusive(counts(0, 41, 959))
        assert abs(result.normalized - 0.1573) < 1e-4
        assert round(result.normalized, 2) == 0.16

    def test_no_stance_dilution_value(self):
        # frozen from the ordered-pair enumeration over 200^2 pairs
        result = contention_exclusive(counts(100, 50, 50))
        assert result.raw == 0.125
        assert result.normalized == 0.25
        assert float(brute_force_counts_raw(counts(100, 50, 50))) == result.raw

    def test_uniform_three_stance(self):
        space = StanceSpace.exclusive(["a", "b", "c"])
        result = contention_exclusive(counts(0, 100, 100, 100, space=space))
        assert math.isclose(result.raw, 2 / 3, rel_tol=1e-15)
        assert result.normalized == 1.0

    def test_empty_population(self):
        with pytest.raises(EmptyPopulation):
            contention_exclusive(counts(0, 0, 0))

    def test_non_exclusive_space_rejected(self):
        space = StanceSpace.from_conflict_pairs(["a", "b", "c"], [("a", "b")])
        with pytest.raises(NonExclusiveSpace):
            contention_exclusive(StanceCounts(space, (0, 1, 1, 1)))

    def test_single_stance_topic(self):
        space = StanceSpace.exclusive(["only"])
        result = contention_exclusive(StanceCounts(space, (3, 7)))
        assert result.raw == 0.0
        assert result.normalized == 0.0

    def test_complement_invariant(self):
        result = contention_exclusive(counts(13, 29, 57))
        assert abs(result.raw + result.non_contention_raw - 1.0) < 1e-12
        assert abs(result.normalized + result.non_contention_normalized - 1.0) < 1e-12

    def test_population_and_k_reported(self):
        result = contention_exclusive(counts(1, 2, 3))
        assert result.population == 6
        assert result.k == 2

    def test_observed_k_mode(self):
        space = StanceSpace.exclusive(["a", "b", "c"])
        c = counts(0, 50, 50, 0, space=space)
        declared = contention_exclusive(c)
        observed = contention_exclusive(c, k_mode="observed")
        assert declared.k == 3 and observed.k == 2
        assert declared.raw == observed.raw
        assert observed.normalized == pytest.approx(declared.raw / 0.5)


class TestContentionResult:
    def test_fields_are_pinned(self):
        assert [f.name for f in fields(ContentionResult)] == [
            "raw", "normalized", "k", "population", "method", "samples", "seed", "filter",
        ]

    def test_complements_are_exact_and_results_are_slotted(self):
        people = AssignmentSet.from_stance_ids(TWO, [["a"], ["b"], ["a", "b"], [], ["a"]])
        results = [
            contention_exclusive(counts(13, 29, 57)),
            contention_general(people),
            contention_sampled(people, 1000, 3),
            sampled_from_counts(counts(13, 29, 57), 1000, 3),
        ]
        for result in results:
            assert result.non_contention_raw == 1.0 - result.raw
            assert result.non_contention_normalized == 1.0 - result.normalized
            assert not hasattr(result, "__dict__")
            assert pickle.loads(pickle.dumps(result)) == result

    @pytest.mark.parametrize("score, data", SCORERS.values(), ids=SCORERS)
    def test_unknown_k_mode_rejected(self, score, data):
        with pytest.raises(ValueError, match="k_mode"):
            score(data, k_mode="bogus")

    @pytest.mark.parametrize("score, data, counted", [
        *((score, data, [data]) for score, data in SCORERS.values()),
        (lambda series, **kw: timeseries(series, **kw)[0], SERIES,
         [SOME, SOME, SOME.with_no_stance(0)]),
    ], ids=[*SCORERS, "timeseries"])
    def test_observed_k_counted_only_under_observed(self, monkeypatch, score, data, counted):
        seen = []
        for cls in (StanceCounts, AssignmentSet):
            monkeypatch.setattr(cls, "observed_k", property(
                lambda c, observed_k=cls.observed_k.fget: seen.append(c) or observed_k(c)))
        assert score(data).k == 2 and seen == []
        assert score(data, k_mode="observed").k == 1 and seen == counted

    def test_sampled_without_seed_reports_its_draws(self):
        people = AssignmentSet.from_stance_ids(TWO, [["a"], ["b"]])
        for result in (contention_sampled(people, 100, None), sampled_from_counts(SOME, 100, None)):
            assert (result.method, result.samples, result.seed) == ("general-sampled", 100, None)


class TestGeneralModel:
    def test_three_person_example(self):
        held = [{"a"}, {"b"}, set()]
        result = contention_general(AssignmentSet.from_stance_ids(TWO, held))
        assert result.raw == 2 / 9
        assert result.method == "general-exact"

    def test_intrapersonal_conflict_counts_once(self):
        space = StanceSpace.from_conflict_pairs(["a", "b"], [("a", "b")])
        result = contention_general(AssignmentSet.from_stance_ids(space, [{"a", "b"}]))
        assert result.raw == 1.0

    def test_all_no_stance(self):
        result = contention_general(AssignmentSet.from_stance_ids(TWO, [set(), set(), set()]))
        assert result.raw == 0.0

    def test_empty(self):
        with pytest.raises(EmptyPopulation):
            contention_general(AssignmentSet(TWO, ()))

    def test_pair_conflicting_via_two_stance_pairs_counts_once(self):
        # the case that breaks naive per-stance-pair accounting
        space = StanceSpace.from_conflict_pairs(
            ["s1", "s2", "s3", "s4"], [("s1", "s2"), ("s3", "s4")]
        )
        held = [{"s1", "s3"}, {"s2", "s4"}]
        result = contention_general(AssignmentSet.from_stance_ids(space, held))
        # ordered pairs: (p1,p2) and (p2,p1) conflict, self-pairs do not
        assert result.raw == 0.5


class TestSampled:
    def setup_method(self):
        self.assignments = AssignmentSet.from_stance_ids(TWO, [{"a"}, {"b"}, set()])

    def test_close_to_exact(self):
        result = contention_sampled(self.assignments, 10**6, seed=42)
        assert abs(result.raw - 2 / 9) < 0.002
        assert result.samples == 10**6
        assert result.seed == 42
        assert result.method == "general-sampled"

    def test_seed_reproducibility(self):
        a = contention_sampled(self.assignments, 5000, seed=7)
        b = contention_sampled(self.assignments, 5000, seed=7)
        c = contention_sampled(self.assignments, 5000, seed=8)
        assert a.raw == b.raw
        assert a.raw != c.raw  # overwhelmingly likely for distinct seeds

    def test_all_no_stance_is_zero(self):
        quiet = AssignmentSet.from_stance_ids(TWO, [set()] * 5)
        assert contention_sampled(quiet, 1000, seed=1).raw == 0.0

    def test_uniform_two_stance(self):
        held = [{"a"}] * 50 + [{"b"}] * 50
        result = contention_sampled(AssignmentSet.from_stance_ids(TWO, held), 10**6, seed=3)
        assert abs(result.raw - 0.5) < 0.002

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            contention_sampled(self.assignments, 0, seed=1)

    @pytest.mark.parametrize("sampler", ["people", "counts"])
    def test_samples_is_read_as_an_index(self, sampler):
        # both samplers read samples by operator.index: a float or a str is
        # the same TypeError, and a numpy integer is its int
        import numpy as np

        def run(samples):
            if sampler == "people":
                return contention_sampled(self.assignments, samples, seed=1)
            return sampled_from_counts(self.assignments.to_counts(), samples, seed=1)

        for bad in (10.0, "10"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                run(bad)
        assert repr(run(np.int64(1000))) == repr(run(1000))
        assert run(np.uint16(1000)).samples == 1000

    def test_counts_sampler_rejects_an_empty_population(self):
        with pytest.raises(EmptyPopulation,
                           match="^contention is undefined for an empty population$"):
            sampled_from_counts(counts(0, 0, 0), 1000, seed=1)

    def test_counts_backed_sampler_matches_exact(self):
        c = counts(100, 300, 600)
        exact = contention_exclusive(c)
        est = sampled_from_counts(c, 10**5, seed=11)
        sigma = math.sqrt(exact.raw * (1 - exact.raw) / 10**5)
        assert abs(est.raw - exact.raw) < 4 * sigma
        assert est.raw == sampled_from_counts(c, 10**5, seed=11).raw


class TestRestrict:
    def test_always_true_is_identity(self):
        c = counts(10, 20, 30)
        sliced = restrict(c, SubpopulationFilter())
        assert sliced.counts == c.counts
        assert sliced.filter is not None and sliced.filter.criteria == ()

    def test_single_group_slice_has_zero_contention(self):
        sliced = restrict(counts(10, 20, 30), SubpopulationFilter.of(stance=["a"]))
        assert contention_exclusive(sliced).raw == 0.0

    def test_group_plus_no_stance_has_zero_contention(self):
        sliced = restrict(
            counts(10, 20, 30), SubpopulationFilter.of(stance=["a", NO_STANCE])
        )
        assert sliced.counts == (10, 20, 0)
        assert contention_exclusive(sliced).raw == 0.0

    def test_only_counts_and_assignments_restrict(self):
        with pytest.raises(TypeError, match="^cannot restrict list$"):
            restrict([1, 2], SubpopulationFilter())

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            restrict(counts(1, 2, 3), SubpopulationFilter.of(region="north"))

    def test_filter_carried_onto_result(self):
        flt = SubpopulationFilter.of(stance=["a", "b"])
        result = contention_exclusive(restrict(counts(5, 2, 3), flt))
        assert result.filter == flt

    def test_assignment_restrict_by_attribute(self):
        held = [{"a"}, {"b"}, {"b"}, set()]
        attrs = [{"region": "n"}, {"region": "n"}, {"region": "s"}, {"region": "n"}]
        people = AssignmentSet.from_stance_ids(TWO, held, attributes=attrs)
        north = restrict(people, SubpopulationFilter.of(region=["n"]))
        assert north.n == 3
        assert contention_general(north).raw == 2 / 9

    def test_assignment_restrict_by_stance(self):
        held = [{"a"}, {"b"}, set()]
        people = AssignmentSet.from_stance_ids(TWO, held)
        stanced = restrict(people, SubpopulationFilter.of(stance=["a", "b"]))
        assert stanced.n == 2
        assert contention_general(stanced).raw == 0.5

    def test_every_repeated_stance_criterion_must_hold(self):
        """A filter naming "stance" twice keeps only who matches both."""
        both = SubpopulationFilter((("stance", frozenset({"a"})), ("stance", frozenset({"b"}))))
        space = StanceSpace.from_conflict_pairs(["a", "b"], [("a", "b")])
        people = AssignmentSet.from_stance_ids(space, [{"a"}, {"b"}, {"a", "b"}, set()])
        assert restrict(people, both).assignments == (frozenset({1, 2}),)
        assert restrict(counts(10, 20, 30), both).counts == (0, 0, 0)
        either = SubpopulationFilter((("stance", frozenset({"a", "b"})), ("stance", frozenset({"b"}))))
        assert restrict(counts(10, 20, 30), either).counts == (0, 0, 30)

    def test_assignment_unknown_attribute(self):
        people = AssignmentSet.from_stance_ids(TWO, [{"a"}])
        with pytest.raises(UnknownAttribute):
            restrict(people, SubpopulationFilter.of(age=["18"]))

    def test_unknown_attribute_beside_a_stance_criterion(self):
        people = AssignmentSet.from_stance_ids(TWO, [{"a"}], attributes=[{"region": "n"}])
        with pytest.raises(UnknownAttribute, match=r"^no person carries attribute\(s\) \['age'\]$"):
            restrict(people, SubpopulationFilter.of(age=["18"], region=["n"], stance=["a"]))

    def test_stance_only_restrict_keeps_attributes_aligned(self):
        attrs = [{"region": "n"}, {"region": "s"}, {}, {"region": "s"}]
        people = AssignmentSet.from_stance_ids(TWO, [{"a"}, {"b"}, {"a"}, set()], attributes=attrs)
        kept = restrict(people, SubpopulationFilter.of(stance=["a"]))
        assert kept.assignments == (frozenset({1}), frozenset({1}))
        assert kept.attributes == ({"region": "n"}, {})
        everyone = restrict(people, SubpopulationFilter())
        assert everyone.assignments == people.assignments and everyone.attributes == people.attributes


class TestMaxContention:
    @pytest.mark.parametrize("k,expected", [(0, 0.0), (1, 0.0), (2, 0.5), (3, 2 / 3), (5, 0.8)])
    def test_values(self, k, expected):
        assert max_contention(k) == pytest.approx(expected, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            max_contention(-1)

    def test_normalize_helper(self):
        assert normalize_contention(0.25, 2) == 0.5
        assert normalize_contention(0.0, 1) == 0.0
        assert normalize_contention(0.0, 0) == 0.0


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        matrix = (
            (False, False, False),
            (False, False, True),
            (False, False, False),  # missing the mirror of (1,2)
        )
        with pytest.raises(ValueError, match="asymmetric"):
            StanceSpace(TWO.ids, matrix)

    def test_self_conflict_rejected(self):
        matrix = (
            (False, False, False),
            (False, True, True),
            (False, True, False),
        )
        with pytest.raises(ValueError, match="itself"):
            StanceSpace(TWO.ids, matrix)

    def test_self_conflict_pair_rejected_before_later_pairs(self):
        # without the pair check, the matrix check would reject ("a", "a")
        # too, but only after the loop had reported the unknown pair
        with pytest.raises(ValueError, match="^a stance cannot conflict with itself$"):
            StanceSpace.from_conflict_pairs(["a", "b"], [("a", "a"), ("a", "c")])

    def test_no_stance_conflict_rejected(self):
        matrix = (
            (False, True, False),
            (True, False, True),
            (False, True, False),
        )
        with pytest.raises(ValueError, match="no-stance"):
            StanceSpace(TWO.ids, matrix)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StanceSpace.exclusive(["x", "x"])

    def test_reserved_sentinel_id(self):
        with pytest.raises(ValueError):
            StanceSpace.exclusive([NO_STANCE])

    def test_every_id_is_checked_before_the_duplicates(self):
        empty = "^stance id must be non-empty$"
        reserved = "^'__none__' is reserved for the no-stance sentinel$"
        for build in (StanceSpace.exclusive, lambda ids: StanceSpace(ids, None)):
            with pytest.raises(ValueError, match=empty):
                build(["a", "a", ""])
            with pytest.raises(ValueError, match=reserved):
                build(["a", "a", NO_STANCE, ""])
            with pytest.raises(ValueError, match=r"^duplicate stance ids: \['a', 'b', 'a'\]$"):
                build(("a", "b", "a"))
        # from_conflict_pairs checks each id, then the pairs, then the repeats
        with pytest.raises(ValueError, match=empty):
            StanceSpace.from_conflict_pairs(["a", ""], [("a", "c")])
        with pytest.raises(ValueError, match=r"^unknown stance in conflict pair \('a', 'c'\)$"):
            StanceSpace.from_conflict_pairs(["a", "a"], [("a", "c")])
        with pytest.raises(ValueError, match=r"^duplicate stance ids: \['a', 'a'\]$"):
            StanceSpace.from_conflict_pairs(["a", "a"], [])

    def test_a_list_of_ids_equals_and_hashes_like_the_tuple(self):
        matrix = ((0, 0, 0), (0, 0, 1), (0, 1, 0))
        listed, held = StanceSpace(["a", "b"], matrix), StanceSpace(("a", "b"), matrix)
        assert listed.ids == ("a", "b") and type(listed.ids) is tuple
        assert listed == held == TWO and hash(listed) == hash(held) == hash(TWO)
        assert StanceSpace.exclusive(iter(["a", "b"])) == TWO

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=r"^counts must be non-negative: \(0, -1, 2\)$"):
            StanceCounts(TWO, (0, -1, 2))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^expected 3 counts \(index 0 = no stance\), got 2$"):
            StanceCounts(TWO, (1, 2))

    def test_float_counts_truncate_before_the_check(self):
        assert StanceCounts(TWO, (0.0, 1.9, 2)).counts == (0, 1, 2)
        with pytest.raises(ValueError, match=r"^counts must be non-negative: \(0, -1, 2\)$"):
            StanceCounts(TWO, (0, -1.5, 2))
        with pytest.raises(ValueError, match="^cannot convert float NaN to integer$"):
            StanceCounts(TWO, (0, math.nan, 2))

    def test_counts_addition_and_scaling(self):
        total = counts(1, 2, 3) + counts(4, 5, 6)
        assert total.counts == (5, 7, 9)

    def test_counts_over_different_spaces_do_not_add(self):
        other = StanceSpace.exclusive(["a", "c"])
        with pytest.raises(ValueError, match="^cannot add counts over different stance spaces$"):
            counts(1, 2, 3) + counts(4, 5, 6, space=other)

    def test_misaligned_attributes_rejected(self):
        with pytest.raises(ValueError, match="^attributes must align one-to-one with assignments$"):
            AssignmentSet.from_stance_ids(TWO, [{"a"}], attributes=[{}, {}])

    def test_joint_no_stance_rejected(self):
        with pytest.raises(ValueError):
            AssignmentSet(TWO, (frozenset({0, 1}),))

    def test_empty_holding_rejected(self):
        with pytest.raises(ValueError):
            AssignmentSet(TWO, (frozenset(),))

    def test_stance_ids_index_in_order_after_the_sentinel(self):
        space = StanceSpace.exclusive(["x", "y", "z"])
        by_id = StanceCounts.from_mapping(space, {"z": 5, "x": 2, NO_STANCE: 7})
        assert by_id.counts == (7, 2, 0, 5)
        people = AssignmentSet.from_stance_ids(space, [{"z", "y"}, {NO_STANCE}])
        assert people.assignments == (frozenset({2, 3}), frozenset({0}))

    @pytest.mark.parametrize("build", [
        lambda: AssignmentSet.from_stance_ids(
            StanceSpace.from_conflict_pairs(["a", "b"], [("a", "b")]), [{"c"}]
        ),
        lambda: StanceCounts.from_mapping(TWO, {"a": 1, "c": 2}),
        lambda: AssignmentSet.from_stance_ids(TWO, [{"a"}, {"b", "c"}]),
    ])
    def test_unknown_stance_id_is_named(self, build):
        with pytest.raises(KeyError, match="unknown stance id 'c'"):
            build()

    def test_to_counts_roundtrip(self):
        people = AssignmentSet.from_stance_ids(TWO, [{"a"}, {"a"}, {"b"}, set()])
        assert people.to_counts().counts == (1, 2, 1)

    def test_to_counts_requires_single_stances(self):
        space = StanceSpace.from_conflict_pairs(["a", "b"], [("a", "b")])
        people = AssignmentSet.from_stance_ids(space, [{"a", "b"}])
        with pytest.raises(ValueError):
            people.to_counts()


class TestSharedExclusiveMatrix:
    """Every exclusive space of k stances holds the one checked all-pairs
    matrix for that k; any other matrix is checked in full."""

    @staticmethod
    def ids(k):
        return [f"s{i}" for i in range(k)]

    def test_spaces_of_equal_k_share_one_matrix(self):
        a = StanceSpace.exclusive(["leave", "remain", "undecided"])
        b = StanceSpace.exclusive(["x", "y", "z"])
        assert a.conflicts is b.conflicts
        assert a.is_exclusive() and b.is_exclusive()
        assert StanceSpace.exclusive(["x", "y"]).conflicts is not a.conflicts

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 40])
    def test_shared_matrix_is_the_all_pairs_pattern(self, k):
        ids = self.ids(k)
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[:i]]
        built = StanceSpace.from_conflict_pairs(ids, pairs)
        space = StanceSpace.exclusive(ids)
        assert space == built and hash(space) == hash(built)
        assert all(type(c) is bool for row in space.conflicts for c in row)

    @pytest.fixture
    def checked(self, monkeypatch):
        """The size of every matrix checked in full from here on."""
        sizes = []
        check = model._checked_conflicts
        monkeypatch.setattr(model, "_checked_conflicts",
                            lambda conflicts, size: sizes.append(size) or check(conflicts, size))
        return sizes

    def test_each_k_is_checked_once(self, monkeypatch, checked):
        monkeypatch.setattr(model, "_EXCLUSIVE_MATRICES", {})
        for _ in range(3):
            StanceSpace.exclusive(self.ids(3))
            StanceSpace.exclusive(self.ids(5))
        assert checked == [4, 6]

    def test_equal_matrix_of_another_object_is_checked_in_full(self, checked):
        space = StanceSpace.exclusive(self.ids(3))
        shared = space.conflicts
        checked.clear()
        copy = StanceSpace(space.ids, tuple(tuple(list(row)) for row in shared))
        as_ints = StanceSpace(space.ids, [[int(c) for c in row] for row in shared])
        assert checked == [4, 4]
        assert copy.conflicts == shared and copy.conflicts is not shared
        assert as_ints.conflicts == shared
        assert all(type(c) is bool for row in as_ints.conflicts for c in row)
        assert copy.is_exclusive() and as_ints.is_exclusive()

    @pytest.mark.parametrize("clone", [
        lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_cloned_space_and_counts_stay_exclusive(self, clone):
        space = StanceSpace.exclusive(self.ids(3))
        counts = StanceCounts(space, (4, 1, 2, 3))
        space_clone, counts_clone = clone(space), clone(counts)
        assert space_clone == space and space_clone.is_exclusive()
        assert counts_clone.space.is_exclusive()
        assert contention_exclusive(counts_clone) == contention_exclusive(counts)
        torn = StanceSpace.from_conflict_pairs(self.ids(3), [("s0", "s1")])
        assert not clone(torn).is_exclusive()

    @pytest.mark.parametrize("flip, message", [
        ((1, 2), "asymmetric"),
        ((2, 2), "itself"),
        ((0, 3), "no-stance"),
    ])
    def test_bad_matrix_of_a_memoised_k_is_rejected(self, flip, message):
        space = StanceSpace.exclusive(self.ids(3))
        assert model._EXCLUSIVE_MATRICES[3] is space.conflicts
        rows = [list(row) for row in space.conflicts]
        i, j = flip
        rows[i][j] = not rows[i][j]
        with pytest.raises(ValueError, match=message):
            StanceSpace(space.ids, tuple(map(tuple, rows)))
        # the memo's own matrix is untouched
        assert StanceSpace.exclusive(self.ids(3)).conflicts == space.conflicts
        assert space.conflicts[i][j] != rows[i][j]

    def test_missing_matrix_of_an_unseen_k_is_rejected(self, monkeypatch):
        monkeypatch.setattr(model, "_EXCLUSIVE_MATRICES", {})
        with pytest.raises(TypeError):
            StanceSpace(StanceSpace.exclusive(["a"]).ids + ("b",), None)

    def test_memo_matrix_of_another_k_is_checked(self):
        two = StanceSpace.exclusive(["a", "b"]).conflicts
        with pytest.raises(ValueError, match="must be 4x4"):
            StanceSpace(StanceSpace.exclusive(self.ids(3)).ids, two)

    def test_fields_equality_hash_and_repr_are_unchanged(self):
        assert [f.name for f in fields(StanceSpace)] == ["ids", "conflicts"]
        space = StanceSpace.exclusive(["a", "b"])
        assert repr(space) == (
            "StanceSpace(ids=('a', 'b'), "
            "conflicts=((False, False, False), (False, False, True), (False, True, False)))"
        )
        direct = StanceSpace(space.ids, ((0, 0, 0), (0, 0, 1), (0, 1, 0)))
        assert direct == space and hash(direct) == hash(space)
        assert space != StanceSpace.from_conflict_pairs(["a", "b"], [])
        assert {space, direct} == {space}


class TestInternedAssignments:
    """Each distinct held set is built and checked once; every person keeps
    the frozenset they came with."""

    VALID = (frozenset({1}), frozenset({2}), frozenset({0}), frozenset({1, 2})) * 2500

    def test_equal_id_tuples_share_one_frozenset(self):
        people = AssignmentSet.from_stance_ids(TWO, [("a",), ("a", "b"), (), ("a",), ["a", "b"], ()])
        first, both, none, *again = people.assignments
        assert again[0] is first and again[1] is both and again[2] is none
        assert people.assignments == (
            frozenset({1}), frozenset({1, 2}), frozenset({0}),
            frozenset({1}), frozenset({1, 2}), frozenset({0}),
        )

    @pytest.mark.parametrize("bad, message", [
        (frozenset(), "every person holds at least the no-stance sentinel"),
        (frozenset({0, 2}), "no explicit stance can be held jointly with no-stance"),
        (frozenset({1, 3}), "stance index out of range in [1, 3]"),
        ([-1], "stance index out of range in [-1]"),
    ])
    def test_invalid_set_after_many_valid_ones_is_rejected(self, bad, message):
        assert len(self.VALID) == 10**4
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AssignmentSet(TWO, (*self.VALID, bad, *self.VALID))

    @pytest.mark.parametrize("bad, message", [
        (frozenset({1.0}), "stance index 1.0 is not an int"),
        (frozenset({"1"}), "stance index '1' is not an int"),
        (frozenset({5, "x"}), "stance index 'x' is not an int"),
    ])
    def test_non_int_index_is_rejected(self, bad, message):
        # frozenset({1.0}) == frozenset({1}): a type check keyed by the
        # distinct sets would miss the float behind the earlier int set
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AssignmentSet(TWO, (frozenset({1}), frozenset({0}), bad))

    def test_first_invalid_person_names_the_error(self):
        later = [frozenset(), *(frozenset({i}) for i in range(3, 60))]
        with pytest.raises(ValueError, match="^no explicit stance can be held jointly"):
            AssignmentSet(TWO, (*self.VALID, frozenset({0, 1}), *later, frozenset({0, 1})))

    def test_each_person_keeps_their_own_frozenset(self):
        people = AssignmentSet(TWO, (frozenset({True}), [1]))
        assert repr(people.assignments) == "(frozenset({True}), frozenset({1}))"
        given = (frozenset({1}), frozenset({1}))
        kept = AssignmentSet(TWO, given).assignments
        assert kept[0] is given[0] and kept[1] is given[1]
