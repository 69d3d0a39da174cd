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
    scaled = contention_exclusive(StanceCounts(counts.space, tuple(c * m for c in counts.counts)))
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
    k = people.space.k if k_mode == "declared" else _reference_observed_k(people)
    normalized = total * k / (n * n * (k - 1)) if k >= 2 else 0.0
    return ContentionResult(total / (n * n), normalized, k, n, "general-exact", filter=people.filter)


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
    k = people.space.k if k_mode == "declared" else _reference_observed_k(people)
    return ContentionResult(hits / samples, normalize_contention(hits / samples, k), k, n,
                            "general-sampled", samples, seed, people.filter)


def _reference_sampled_from_counts(counts, samples, seed, k_mode):
    """The counts sampler written with ``Generator.choice``: the draws that
    the table lookup of ``sampled_from_counts`` must reproduce."""
    import numpy as np

    space = counts.space
    n = counts.total
    matrix = np.array(space.conflicts, dtype=bool)
    weights = np.array(counts.counts, dtype=np.float64) / n
    rng = np.random.default_rng(seed)
    first = rng.choice(space.k + 1, size=samples, p=weights)
    second = rng.choice(space.k + 1, size=samples, p=weights)
    hits = int(matrix[first, second].sum())
    k = space.k if k_mode == "declared" else sum(1 for c in counts.counts[1:] if c)
    return ContentionResult(hits / samples, normalize_contention(hits / samples, k), k, n,
                            "general-sampled", samples, seed, counts.filter)


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


@st.composite
def sampler_counts(draw):
    """Counts over 1..300 stances, zeros among them, with a population below
    2**53, over the exclusive space or a sparse conflict relation."""
    k = draw(st.integers(min_value=1, max_value=300))
    cap = (2**53 - 1) // (k + 1)
    value = st.just(0) | st.integers(min_value=1, max_value=8) | st.integers(min_value=0, max_value=cap)
    values = draw(st.lists(value, min_size=k + 1, max_size=k + 1))
    if not any(values):
        values[draw(st.integers(min_value=0, max_value=k))] = 1
    ids = [f"s{i}" for i in range(1, k + 1)]
    if draw(st.booleans()):
        space = StanceSpace.exclusive(ids)
    else:
        index = st.integers(min_value=0, max_value=k - 1)
        pairs = draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]), max_size=20))
        space = StanceSpace.from_conflict_pairs(ids, [(ids[a], ids[b]) for a, b in pairs])
    return StanceCounts(space, tuple(values))


@settings(deadline=None)
@given(sampler_counts(),
       st.integers(min_value=1, max_value=3 * model._BLOCK + 7)
       | st.sampled_from([model._BLOCK - 1, model._BLOCK, model._BLOCK + 1, 3 * model._BLOCK + 7]),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["declared", "observed"]))
def test_counts_sampler_draws_what_generator_choice_draws(counts, samples, seed, k_mode):
    result = sampled_from_counts(counts, samples, seed, k_mode=k_mode)
    reference = _reference_sampled_from_counts(counts, samples, seed, k_mode)
    assert repr(result) == repr(reference)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 65_537, 2**31, 2**32 - 1, 2**32])
def test_uint32_people_draws_are_the_int64_draws(n):
    # contention_sampled draws people as uint32 up to 2**32 of them and
    # promises the draws of Generator.integers, whose default dtype is int64
    import numpy as np

    size = 2 * model._BLOCK + 3
    narrow = np.random.default_rng(n).integers(0, n, size=size, dtype=np.uint32)
    wide = np.random.default_rng(n).integers(0, n, size=size)
    assert narrow.dtype == np.uint32 and wide.dtype == np.int64
    assert np.array_equal(narrow, wide)


@pytest.mark.parametrize("dtype, n", [
    *(("uint32", n) for n in [1, 2, 255, 256, 65_537, 2**31, 2**32 - 1, 2**32]),
    ("int64", 2**32 + 5), ("int64", 2**62),
])
@pytest.mark.parametrize("size", [model._BLOCK - 1, model._BLOCK + 1, 3 * model._BLOCK + 7])
def test_blockwise_people_draws_are_the_whole_draws(dtype, n, size):
    # _draw_pairs draws side 1 and then side 2 one _BLOCK at a time, and the
    # people sampler promises the draws of one Generator.integers call per side
    import numpy as np

    rng = np.random.default_rng(n)
    blocks = list(model._draw_pairs(size, dtype, lambda m: rng.integers(0, n, size=m, dtype=dtype)))
    whole = np.random.default_rng(n)
    for side in range(2):
        drawn = np.concatenate([pair[side] for pair in blocks])
        assert drawn.dtype == dtype
        assert np.array_equal(drawn, whole.integers(0, n, size=size, dtype=dtype))


@pytest.mark.parametrize("sampler", ["people", "counts"])
def test_sampler_peak_grows_about_one_byte_per_draw(sampler):
    # both samplers hold only the first side's draws, a byte each up to 256
    # held sets or 254 stances; numpy reports its buffers to tracemalloc
    import tracemalloc

    space = StanceSpace.exclusive(["a", "b", "c"])
    if sampler == "people":
        data = AssignmentSet.from_stance_ids(space, [["a"], ["b", "c"], [], ["c"]] * 50)
        run = contention_sampled
    else:
        data, run = StanceCounts(space, (3, 5, 7, 11)), sampled_from_counts
    run(data, 1000, 5)  # numpy loaded and every memo filled before measuring

    def peak(samples):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(data, samples, 5)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = 1 << 20, 1 << 22
    assert (peak(large) - peak(small)) / (large - small) <= 1.25


def test_people_sampler_matches_reference_past_one_block():
    # 10 stances held one to five at a time give hundreds of distinct sets,
    # more than one byte numbers
    rng = random.Random(12)
    ids = [f"s{i}" for i in range(1, 11)]
    space = StanceSpace.from_conflict_pairs(
        ids, [(a, b) for a in ids for b in ids if a < b and rng.random() < 0.3])
    held = tuple(frozenset(rng.sample(range(1, 11), rng.randint(1, 5))) for _ in range(3000))
    people = AssignmentSet(space, held)
    assert len(people._groups) > 256
    samples = 3 * model._BLOCK + 7
    for seed in (0, 41):
        assert repr(contention_sampled(people, samples, seed)) == \
            repr(_reference_sampled(people, samples, seed, "declared"))


def test_people_sampler_matches_reference_past_one_word():
    # 70 stances take two uint64 words per held set, and one or two held
    # stances out of 70 give more than 256 distinct sets, many of them
    # holding or opposing stances past index 63
    rng = random.Random(70)
    ids = [f"s{i}" for i in range(1, 71)]
    space = StanceSpace.from_conflict_pairs(
        ids, [(a, b) for a in ids for b in ids if a < b and rng.random() < 0.05])
    held = tuple(frozenset(rng.sample(range(1, 71), rng.randint(1, 2))) for _ in range(2000))
    people = AssignmentSet(space, held)
    assert space.k >= 64 and len(people._groups) > 256
    samples = 2 * model._BLOCK + 5
    for seed in (0, 41):
        assert repr(contention_sampled(people, samples, seed)) == \
            repr(_reference_sampled(people, samples, seed, "declared"))
