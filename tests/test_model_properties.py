"""Model invariants: property tests plus the exhaustive maximality search."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention import model
from contention.errors import EmptyPopulation
from contention.model import (
    NO_STANCE,
    AssignmentSet,
    StanceCounts,
    StanceSpace,
    SubpopulationFilter,
    contention_exclusive,
    contention_general,
    contention_sampled,
    max_contention,
    restrict,
)

from conftest import (
    brute_force_assignments_raw,
    random_overlapping_assignments,
    random_single_stance_assignments,
)


@st.composite
def exclusive_counts(draw, max_k=6, max_count=200):
    k = draw(st.integers(min_value=1, max_value=max_k))
    values = draw(
        st.lists(st.integers(min_value=0, max_value=max_count), min_size=k + 1, max_size=k + 1)
    )
    if not sum(values):
        values[draw(st.integers(min_value=0, max_value=k))] = 1
    space = StanceSpace.exclusive([f"s{i}" for i in range(1, k + 1)])
    return StanceCounts(space, tuple(values))


@given(exclusive_counts())
def test_range_and_complement(counts):
    result = contention_exclusive(counts)
    k = counts.space.k
    assert 0.0 <= result.raw <= max_contention(k) + 1e-15
    assert 0.0 <= result.normalized <= 1.0 + 1e-12
    assert abs(result.raw + result.non_contention_raw - 1.0) < 1e-12
    assert abs(result.normalized + result.non_contention_normalized - 1.0) < 1e-12


@given(exclusive_counts(), st.randoms(use_true_random=False))
def test_label_permutation_invariance(counts, rng):
    explicit = list(counts.explicit)
    rng.shuffle(explicit)
    permuted = StanceCounts(counts.space, (counts.no_stance, *explicit))
    assert contention_exclusive(permuted).raw == contention_exclusive(counts).raw
    assert contention_exclusive(permuted).normalized == contention_exclusive(counts).normalized


@given(exclusive_counts(), st.integers(min_value=1, max_value=1000))
def test_scale_invariance(counts, m):
    base = contention_exclusive(counts)
    scaled = contention_exclusive(counts.scaled(m))
    assert math.isclose(base.raw, scaled.raw, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(base.normalized, scaled.normalized, rel_tol=1e-12, abs_tol=0.0)


@given(exclusive_counts(), st.integers(min_value=1, max_value=500))
def test_no_stance_dilution_strictly_decreases(counts, extra):
    base = contention_exclusive(counts)
    if base.raw == 0.0:
        return
    diluted = contention_exclusive(counts.with_no_stance(counts.no_stance + extra))
    assert diluted.raw < base.raw


@given(exclusive_counts())
def test_single_stance_collapse(counts):
    if counts.observed_k > 1:
        return
    assert contention_exclusive(counts).raw == 0.0


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_equivalence_exclusive(seed):
    """Single-stance assignments agree exactly with the closed form."""
    rng = random.Random(seed)
    people = random_single_stance_assignments(rng, max_n=80, max_k=5)
    general = contention_general(people)
    closed = contention_exclusive(people.to_counts())
    assert general.raw == closed.raw
    assert general.normalized == closed.normalized


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_brute_force_equivalence_overlapping(seed):
    """Signature counting equals naive ordered-pair enumeration exactly."""
    rng = random.Random(seed)
    people = random_overlapping_assignments(rng, max_n=30, max_k=5)
    fast = contention_general(people)
    naive = brute_force_assignments_raw(people)
    # IEEE division is correctly rounded, so the exact ratio pins one float
    assert fast.raw == float(naive)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_maximality_exhaustive(k):
    """Over every composition with |w| <= 12: the max sits at g0 = 0 with
    equal groups and equals (k-1)/k whenever the total divides evenly."""
    space = StanceSpace.exclusive([f"s{i}" for i in range(1, k + 1)])
    bound = max_contention(k)
    for total in range(1, 13):
        best = -1.0
        best_compositions = []
        for comp in _compositions(total, k + 1):
            raw = contention_exclusive(StanceCounts(space, comp)).raw
            assert raw <= bound + 1e-15
            if raw > best + 1e-15:
                best, best_compositions = raw, [comp]
            elif abs(raw - best) <= 1e-15:
                best_compositions.append(comp)
        if k >= 2 and total >= k:
            assert any(c[0] == 0 for c in best_compositions)
        if k >= 2 and total % k == 0 and total >= k:
            equal = (0,) + (total // k,) * k
            assert math.isclose(best, bound, rel_tol=1e-12)
            assert equal in best_compositions
        if k == 1:
            assert best == 0.0


def test_contention_is_not_entropy():
    """Half the population unaware: contention is low where entropy is high.

    Entropy treats the no-stance group as one more outcome, so (n/2, n/4,
    n/4) looks *more* diverse than the all-in split (0, n/2, n/2); for
    contention the order is reversed.
    """
    space = StanceSpace.exclusive(["a", "b"])
    half_aware = StanceCounts(space, (200, 100, 100))
    all_in = StanceCounts(space, (0, 200, 200))

    assert contention_exclusive(half_aware).raw == 0.125
    assert contention_exclusive(all_in).raw == 0.5

    def entropy(counts):
        n = counts.total
        return -sum((c / n) * math.log(c / n) for c in counts.counts if c)

    assert entropy(half_aware) > entropy(all_in)
    assert contention_exclusive(half_aware).raw < contention_exclusive(all_in).raw


def test_general_raw_can_exceed_exclusive_bound():
    """Overlapping holders push raw past (k-1)/k; the cap is exclusive-only."""
    space = StanceSpace.from_conflict_pairs(["a", "b"], [("a", "b")])
    everyone_torn = AssignmentSet.from_stance_ids(space, [{"a", "b"}] * 4)
    assert contention_general(everyone_torn).raw == 1.0 > max_contention(2)


# -- reference: the per-person walk the interned AssignmentSet replaced ------------

def _reference_masks(people):
    """Each person's held-stance bitmask, in person order."""
    for held in people.assignments:
        mask = 0
        for i in held:
            mask |= 1 << i
        yield mask


def _reference_opposing(space, masks):
    """For each mask, the mask of stances that conflict with any stance in
    it, read cell by cell from the conflict matrix."""
    out = []
    for mask in masks:
        opp = 0
        for i, row in enumerate(space.conflicts):
            if mask >> i & 1:
                for j, conflicting in enumerate(row):
                    if conflicting:
                        opp |= 1 << j
        out.append(opp)
    return out


def _reference_observed_k(people):
    held = set().union(*people.assignments) if people.assignments else set()
    return len(held - {0})


def _reference_general(people, k_mode):
    tally = {}
    for mask in _reference_masks(people):
        tally[mask] = tally.get(mask, 0) + 1
    masks = sorted(tally)
    sizes = [tally[m] for m in masks]
    opposing = _reference_opposing(people.space, masks)
    total = 0
    for a in range(len(masks)):
        if masks[a] & opposing[a]:
            total += sizes[a] * sizes[a]
        for b in range(a + 1, len(masks)):
            if masks[b] & opposing[a]:
                total += 2 * sizes[a] * sizes[b]
    n = people.n
    k = model._norm_k(people.space.k, _reference_observed_k(people), k_mode)
    return model._result_from_ratio(total, n * n, k=k, population=n, method="general-exact",
                                    flt=people.filter)


def _reference_sampled(people, samples, seed, k_mode):
    import numpy as np

    n = people.n
    sig_index = {}
    person_sig = np.fromiter(
        (sig_index.setdefault(mask, len(sig_index)) for mask in _reference_masks(people)),
        dtype=np.int64, count=n,
    )
    masks = list(sig_index)
    opposing = _reference_opposing(people.space, masks)
    conflict = np.array([[bool(b & opp) for b in masks] for opp in opposing], dtype=bool)
    rng = np.random.default_rng(seed)
    first = person_sig[rng.integers(0, n, size=samples)]
    second = person_sig[rng.integers(0, n, size=samples)]
    hits = int(conflict[first, second].sum())
    k = model._norm_k(people.space.k, _reference_observed_k(people), k_mode)
    return model._result_from_ratio(hits, samples, k=k, population=n, method="general-sampled",
                                    samples=samples, seed=seed, flt=people.filter)


def _reference_to_counts(people):
    row = [0] * (people.space.k + 1)
    for held in people.assignments:
        if len(held) != 1:
            raise ValueError("counts are only derivable when everyone holds exactly one stance")
        row[next(iter(held))] += 1
    return StanceCounts(people.space, tuple(row), people.filter)


def _reference_restrict(people, flt):
    person_attrs = people.attributes or tuple({} for _ in people.assignments)
    space = people.space
    kept_held, kept_attrs = [], []
    for held, attrs in zip(people.assignments, person_attrs):
        ok = True
        for attr, allowed in flt.criteria:
            if attr == "stance":
                if not {space.all_ids[i] for i in held} & allowed:
                    ok = False
                    break
            elif attrs.get(attr) not in allowed:
                ok = False
                break
        if ok:
            kept_held.append(held)
            kept_attrs.append(attrs)
    return AssignmentSet(space, tuple(kept_held),
                         tuple(kept_attrs) if people.attributes is not None else None, flt)


def _outcome(build):
    """A call's result, or the type and message of the error it raised."""
    try:
        return build()
    except ValueError as error:
        return type(error), str(error)


@st.composite
def repeated_populations(draw):
    """People drawn from a small pool of held sets, so sets repeat.  A person
    may write index 0 or 1 as False or True: an equal set whose repr differs."""
    k = draw(st.integers(min_value=1, max_value=5))
    ids = [f"s{i}" for i in range(1, k + 1)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                          .filter(lambda p: p[0] != p[1]), max_size=8))
    space = StanceSpace.from_conflict_pairs(ids, pairs)
    explicit = st.frozensets(st.integers(min_value=1, max_value=k), min_size=1, max_size=3)
    pool = draw(st.lists(st.just(frozenset({0})) | explicit, min_size=1, max_size=6))
    people = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=40))
    held = tuple(frozenset(bool(i) if i < 2 else i for i in h) if as_bool else h for h, as_bool in people)
    attrs = None
    if draw(st.booleans()):
        attrs = tuple({"region": draw(st.sampled_from("ns"))} for _ in held)
    criteria = {}
    if draw(st.booleans()):
        criteria["stance"] = draw(st.sets(st.sampled_from([NO_STANCE, *ids])))
    if attrs is not None and draw(st.booleans()):
        criteria["region"] = draw(st.sets(st.sampled_from("ns")))
    flt = SubpopulationFilter.of(**criteria)
    if draw(st.booleans()):
        # a second "stance" entry, which .of() cannot express
        second = draw(st.frozensets(st.sampled_from([NO_STANCE, *ids])))
        flt = SubpopulationFilter(flt.criteria + (("stance", second),))
    return AssignmentSet(space, held, attrs), held, flt


@settings(deadline=None)
@given(repeated_populations(), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["declared", "observed"]))
def test_interned_sets_match_per_person_reference(case, seed, k_mode):
    """Grouping people by distinct held set gives the same values, reprs and
    errors as walking every person: for restrict, and for the exact and
    sampled scores, the observed k and counts of both the population and
    its restricted slice, which groups its own people."""
    people, held, flt = case
    assert repr(people.assignments) == repr(held)
    sliced = restrict(people, flt)
    pairs = [(sliced, _reference_restrict(people, flt))]
    for population in (people, sliced):
        pairs += [
            (population.observed_k, _reference_observed_k(population)),
            (_outcome(population.to_counts), _outcome(lambda: _reference_to_counts(population))),
        ]
        if population.n == 0:
            with pytest.raises(EmptyPopulation):
                contention_general(population, k_mode=k_mode)
            with pytest.raises(EmptyPopulation):
                contention_sampled(population, 300, seed, k_mode=k_mode)
            continue
        pairs += [
            (contention_general(population, k_mode=k_mode), _reference_general(population, k_mode)),
            (contention_sampled(population, 300, seed, k_mode=k_mode),
             _reference_sampled(population, 300, seed, k_mode)),
        ]
    for result, reference in pairs:
        assert result == reference
        assert repr(result) == repr(reference)
