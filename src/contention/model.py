"""Stance/population data model and contention scoring.

Conventions used throughout:

- A stance space holds k explicit stances plus one implicit "no stance"
  sentinel at index 0.  Counts and assignments are indexed 0..k, index 0
  being the people with no stance on the topic.
- The conflict relation is a symmetric boolean matrix over all k+1 stances
  with a zero diagonal and an all-false row/column 0 (holding no stance
  conflicts with nobody).
- Contention is the probability that two people drawn uniformly *with
  replacement* hold conflicting stances; drawing the same person twice is
  allowed, so a person holding two conflicting stances conflicts with
  themselves.
- Raw scores live in [0, (k-1)/k] for mutually exclusive stances and are
  normalized to [0, 1] by dividing by that maximum.  With k <= 1 the raw
  score is provably 0 and the normalized score is defined as 0.

All types are frozen; every operation is a pure function, so values are
safe to share across threads.

Every exclusive space of k stances shares one conflict matrix, held in the
module memo ``_EXCLUSIVE_MATRICES`` (k -> the all-pairs pattern).  Each
matrix is built and checked the first time its k is seen and kept for the
life of the process: sum((k+1)^2) references over the distinct k a run
meets, instead of one matrix per space.  A space skips its own matrix
check only when it holds that very object; any other matrix, even an
equal one, is checked in full.

The table loaders share spaces: within one load, every topic that lists
the same explicit stances in the same order holds one ``StanceSpace``.

Each ``AssignmentSet`` groups its people by held set once, when it is
built, and checks each distinct set once; the scorers, ``observed_k``,
``to_counts`` and ``restrict`` read that grouping instead of regrouping.

numpy is imported by the two samplers when they are first called, so
loading the package and the closed-form paths never pay for it.

Counts are Python ints, so numerator products are exact at any population
size; the single final float division carries relative error ~1e-16.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Literal, Mapping, Sequence

from .errors import EmptyPopulation, NonExclusiveSpace, UnknownAttribute

#: Stance id reserved for the no-stance sentinel (index 0 in every space).
NO_STANCE = "__none__"

Method = Literal["exclusive-closed-form", "general-exact", "general-sampled"]
KMode = Literal["declared", "observed"]


@dataclass(frozen=True)
class Stance:
    """One explicit stance: a stable id plus a human-readable label."""

    id: str
    label: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("stance id must be non-empty")
        if self.id == NO_STANCE:
            raise ValueError(f"{NO_STANCE!r} is reserved for the no-stance sentinel")
        if not self.label:
            object.__setattr__(self, "label", self.id)


class _StanceIndex(dict):
    """Stance id -> index map whose unknown ids raise a KeyError naming them."""

    def __missing__(self, stance_id: str) -> int:
        raise KeyError(f"unknown stance id {stance_id!r}")


def _checked_conflicts(
    conflicts: Iterable[Iterable[object]], size: int
) -> tuple[tuple[tuple[bool, ...], ...], bool]:
    """``conflicts`` as a size x size tuple of bools, checked for a zero
    diagonal, a conflict-free sentinel and symmetry; also whether it is
    exactly the mutually-exclusive pattern."""
    matrix = tuple(tuple(map(bool, row)) for row in conflicts)
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise ValueError(f"conflict matrix must be {size}x{size} (index 0 = no stance)")
    exclusive = True
    for i, (row, column) in enumerate(zip(matrix, zip(*matrix))):
        if row[i]:
            raise ValueError("a stance cannot conflict with itself")
        if row[0] or column[0]:
            raise ValueError("the no-stance sentinel conflicts with nothing")
        if row[:i] != column[:i]:
            j = next(j for j in range(i) if row[j] != column[j])
            raise ValueError(
                f"conflict matrix is asymmetric at ({i},{j}); "
                "fix the input instead of relying on symmetrization"
            )
        # with the row symmetric, explicit stances below the diagonal
        # must all conflict for the mutually-exclusive pattern
        exclusive = exclusive and all(row[1:i])
    return matrix, exclusive


#: k -> the checked all-pairs conflict matrix over k stances and the sentinel
_EXCLUSIVE_MATRICES: dict[int, tuple[tuple[bool, ...], ...]] = {}


def _exclusive_matrix(k: int) -> tuple[tuple[bool, ...], ...]:
    """The memo's all-pairs conflict matrix for k stances, built and checked
    the first time k is asked for."""
    matrix = _EXCLUSIVE_MATRICES.get(k)
    if matrix is None:
        # row i: no conflict with the sentinel or with itself, with all else
        rows = ((False,) * (k + 1),) + tuple(
            (False,) + (True,) * (i - 1) + (False,) + (True,) * (k - i) for i in range(1, k + 1)
        )
        rows, exclusive = _checked_conflicts(rows, k + 1)
        if not exclusive:
            raise AssertionError(f"built a non-exclusive matrix for k={k}")
        matrix = _EXCLUSIVE_MATRICES.setdefault(k, rows)
    return matrix


@dataclass(frozen=True)
class StanceSpace:
    """The set of explicit stances plus the implicit no-stance sentinel.

    ``conflicts`` is a dense (k+1) x (k+1) boolean matrix indexed like the
    counts: row/column 0 is the sentinel.  Construction validates symmetry
    and rejects asymmetric input rather than silently symmetrizing.
    """

    stances: tuple[Stance, ...]
    conflicts: tuple[tuple[bool, ...], ...]
    _exclusive: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ids = [s.id for s in self.stances]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate stance ids: {ids}")
        shared = _EXCLUSIVE_MATRICES.get(len(ids))
        if shared is not None and self.conflicts is shared:
            # the memo's own matrix for this k, checked when it was stored
            object.__setattr__(self, "_exclusive", True)
            return
        matrix, exclusive = _checked_conflicts(self.conflicts, len(ids) + 1)
        object.__setattr__(self, "conflicts", matrix)
        object.__setattr__(self, "_exclusive", exclusive)

    @classmethod
    def exclusive(cls, stance_ids: Sequence[str], labels: Mapping[str, str] | None = None) -> StanceSpace:
        """Space where every explicit stance conflicts with every other one."""
        labels = labels or {}
        stances = tuple(Stance(sid, labels.get(sid, "")) for sid in stance_ids)
        return cls(stances, _exclusive_matrix(len(stances)))

    @classmethod
    def from_conflict_pairs(
        cls,
        stance_ids: Sequence[str],
        conflicting: Iterable[tuple[str, str]],
        labels: Mapping[str, str] | None = None,
    ) -> StanceSpace:
        """Space with an explicit list of conflicting stance-id pairs."""
        labels = labels or {}
        stances = tuple(Stance(sid, labels.get(sid, "")) for sid in stance_ids)
        index = {s.id: i + 1 for i, s in enumerate(stances)}
        k = len(stances)
        rows = [[False] * (k + 1) for _ in range(k + 1)]
        for a, b in conflicting:
            if a not in index or b not in index:
                raise ValueError(f"unknown stance in conflict pair ({a!r}, {b!r})")
            if a == b:
                raise ValueError("a stance cannot conflict with itself")
            rows[index[a]][index[b]] = True
            rows[index[b]][index[a]] = True
        return cls(stances, tuple(tuple(r) for r in rows))

    @property
    def k(self) -> int:
        """Number of explicit stances (the sentinel not included)."""
        return len(self.stances)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.stances)

    @property
    def all_ids(self) -> tuple[str, ...]:
        """Sentinel first, then explicit stance ids, in index order."""
        return (NO_STANCE,) + self.ids

    def index_of(self, stance_id: str) -> int:
        return self._indices()[stance_id]

    def _indices(self) -> _StanceIndex:
        """Stance id -> index, with ``__none__`` -> 0.  Built per call and
        not stored: a space holds only its stances and its matrix."""
        indices = _StanceIndex((s.id, i) for i, s in enumerate(self.stances, 1))
        indices[NO_STANCE] = 0
        return indices

    def is_exclusive(self) -> bool:
        """True when the matrix is exactly the mutually-exclusive pattern."""
        return self._exclusive


@dataclass(frozen=True)
class SubpopulationFilter:
    """Named attribute -> allowed values, used to slice a population.

    An empty filter is always-true and selects the full population.  The
    attribute ``"stance"`` is always resolvable and matches stance ids
    (``__none__`` selects the no-stance group).  Filters are carried on
    sliced values and results for provenance.
    """

    criteria: tuple[tuple[str, frozenset[str]], ...] = ()

    @classmethod
    def of(cls, **criteria: Iterable[str]) -> SubpopulationFilter:
        return cls(tuple(sorted((k, frozenset(v)) for k, v in criteria.items())))

    @property
    def is_always_true(self) -> bool:
        return not self.criteria

    def attributes(self) -> tuple[str, ...]:
        return tuple(attr for attr, _ in self.criteria)


@dataclass(frozen=True)
class StanceCounts:
    """Per-stance population counts for one topic/population slice.

    ``counts[0]`` is the no-stance group; ``counts[i]`` for i >= 1 follow
    ``space.stances`` order.  The population size is the sum of all counts.
    """

    space: StanceSpace
    counts: tuple[int, ...]
    filter: SubpopulationFilter | None = None

    def __post_init__(self) -> None:
        counts = tuple(map(int, self.counts))
        if len(counts) != self.space.k + 1:
            raise ValueError(
                f"expected {self.space.k + 1} counts (index 0 = no stance), got {len(counts)}"
            )
        if min(counts) < 0:
            raise ValueError(f"counts must be non-negative: {counts}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_mapping(
        cls,
        space: StanceSpace,
        by_id: Mapping[str, int],
        no_stance: int = 0,
    ) -> StanceCounts:
        indices = space._indices()
        row = [no_stance] + [0] * space.k
        for sid, count in by_id.items():
            row[indices[sid]] = count
        return cls(space, tuple(row))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def no_stance(self) -> int:
        return self.counts[0]

    @property
    def explicit(self) -> tuple[int, ...]:
        return self.counts[1:]

    @property
    def observed_k(self) -> int:
        """Explicit stances with a nonzero count."""
        return sum(1 for c in self.explicit if c)

    def with_no_stance(self, g0: int) -> StanceCounts:
        return StanceCounts(self.space, (g0,) + self.explicit, self.filter)

    def scaled(self, m: int) -> StanceCounts:
        if m <= 0:
            raise ValueError("scale factor must be a positive integer")
        return StanceCounts(self.space, tuple(c * m for c in self.counts), self.filter)

    def __add__(self, other: StanceCounts) -> StanceCounts:
        if other.space is not self.space and other.space != self.space:
            raise ValueError("cannot add counts over different stance spaces")
        return StanceCounts(self.space, tuple(a + b for a, b in zip(self.counts, other.counts)))


@dataclass(frozen=True)
class AssignmentSet:
    """Per-person sets of held stance indices (the general model).

    People may hold several explicit stances at once; holding nothing is
    encoded as the singleton {0}, never jointly with an explicit stance.
    ``attributes`` optionally carries per-person metadata for filtering.
    """

    space: StanceSpace
    assignments: tuple[frozenset[int], ...]
    attributes: tuple[Mapping[str, str], ...] | None = None
    filter: SubpopulationFilter | None = None
    #: distinct held set -> head count, in order of first appearance
    _groups: Counter[frozenset[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        k = self.space.k
        # each person keeps their own frozenset.  Index types are checked over
        # every person, since equal sets such as {1} and {1.0} are one group
        # below; each distinct set is then checked once, in order of first
        # appearance, so the first bad person raises
        cleaned = tuple(map(frozenset, self.assignments))
        if not all(issubclass(t, int) for t in set(map(type, chain.from_iterable(cleaned)))):
            wrong = next(i for i in chain.from_iterable(cleaned) if not isinstance(i, int))
            raise ValueError(f"stance index {wrong!r} is not an int")
        groups = Counter(cleaned)
        for held in groups:
            if not held:
                raise ValueError("every person holds at least the no-stance sentinel")
            if 0 in held and len(held) > 1:
                raise ValueError("no explicit stance can be held jointly with no-stance")
            if any(i < 0 or i > k for i in held):
                raise ValueError(f"stance index out of range in {sorted(held)}")
        object.__setattr__(self, "assignments", cleaned)
        object.__setattr__(self, "_groups", groups)
        if self.attributes is not None and len(self.attributes) != len(cleaned):
            raise ValueError("attributes must align one-to-one with assignments")

    @classmethod
    def from_stance_ids(
        cls,
        space: StanceSpace,
        held_ids: Iterable[Iterable[str]],
        attributes: Sequence[Mapping[str, str]] | None = None,
    ) -> AssignmentSet:
        """People from their held stance ids; equal id tuples share one frozenset."""
        indices = space._indices()
        built: dict[tuple[str, ...], frozenset[int]] = {}
        assignments = []
        for held in held_ids:
            key = tuple(held)
            indexed = built.get(key)
            if indexed is None:
                indexed = built[key] = frozenset(indices[sid] for sid in key) or frozenset({0})
            assignments.append(indexed)
        attrs = tuple(attributes) if attributes is not None else None
        return cls(space, tuple(assignments), attrs)

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def observed_k(self) -> int:
        return len(set().union(*self._groups) - {0})

    def to_counts(self) -> StanceCounts:
        """Derive StanceCounts; requires every person to hold exactly one stance."""
        row = [0] * (self.space.k + 1)
        for held, size in self._groups.items():
            if len(held) != 1:
                raise ValueError("counts are only derivable when everyone holds exactly one stance")
            row[next(iter(held))] += size
        return StanceCounts(self.space, tuple(row), self.filter)


@dataclass(frozen=True)
class ContentionResult:
    """Raw and normalized contention plus the complement scores.

    ``k`` is the stance count used for normalization: the declared k of the
    stance space by default, or the observed nonzero count under
    ``k_mode="observed"``.  ``samples``/``seed`` are set only for the
    sampled estimator.
    """

    raw: float
    normalized: float
    non_contention_raw: float
    non_contention_normalized: float
    k: int
    population: int
    method: Method
    samples: int | None = None
    seed: int | None = None
    filter: SubpopulationFilter | None = field(default=None, compare=False)


def max_contention(k: int) -> float:
    """Largest reachable raw contention for k mutually exclusive stances."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k < 2:
        return 0.0
    return (k - 1) / k


def normalize_contention(raw: float, k: int) -> float:
    """Map a raw score onto [0, 1] by dividing by the k-stance maximum.

    For k <= 1 the raw score is necessarily 0 and the quotient is defined
    as 0 rather than 0/0.
    """
    if k < 2:
        return 0.0
    return raw * k / (k - 1)


def _norm_k(declared: int, observed: int, k_mode: KMode) -> int:
    if k_mode == "observed":
        return observed
    if k_mode == "declared":
        return declared
    raise ValueError(f"k_mode must be 'declared' or 'observed', got {k_mode!r}")


def _result_from_ratio(
    num: int,
    den: int,
    *,
    k: int,
    population: int,
    method: Method,
    samples: int | None = None,
    seed: int | None = None,
    flt: SubpopulationFilter | None = None,
) -> ContentionResult:
    # One division per score keeps the integer arithmetic exact up to the
    # final rounding, and makes the closed form and the general path agree
    # bit-for-bit on identical populations.  A sampled estimate (hits over
    # draws) is normalized from its rounded raw value instead: the two can
    # differ in the last bit, which moves printed digits of sampled runs
    # whose estimate sits on a rounding tie.
    raw = num / den
    if samples is None:
        normalized = (num * k) / (den * (k - 1)) if k >= 2 else 0.0
    else:
        normalized = normalize_contention(raw, k)
    return ContentionResult(
        raw=raw,
        normalized=normalized,
        non_contention_raw=1.0 - raw,
        non_contention_normalized=1.0 - normalized,
        k=k,
        population=population,
        method=method,
        samples=samples,
        seed=seed,
        filter=flt,
    )


def contention_exclusive(counts: StanceCounts, *, k_mode: KMode = "declared") -> ContentionResult:
    """Closed-form contention for mutually exclusive stances.

    raw = (n_s^2 - sum of g_i^2) / n^2, where g_i are the explicit stance
    counts and n_s their sum: the ordered pairs of stance-holders minus
    those who agree, over all ordered pairs of the population (selection
    with replacement).  Exact in integers.  The stance space must carry
    the all-pairs-conflict pattern; anything else has to go through
    :func:`contention_general`.
    """
    if not counts.space.is_exclusive():
        raise NonExclusiveSpace(
            "conflict matrix is not the mutually-exclusive pattern; use contention_general"
        )
    n = counts.total
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    g = counts.explicit
    n_s = sum(g)
    num = n_s * n_s - sum(x * x for x in g)
    k = _norm_k(counts.space.k, counts.observed_k, k_mode)
    return _result_from_ratio(
        num, n * n, k=k, population=n, method="exclusive-closed-form", flt=counts.filter
    )


def _group_masks(assignments: AssignmentSet) -> tuple[list[int], list[int]]:
    """For each distinct held set, in order of first appearance, its bitmask
    and the bitmask of the stances that conflict with any stance in it."""
    rows = [sum(1 << j for j, c in enumerate(row) if c) for row in assignments.space.conflicts]
    groups = assignments._groups
    masks = [sum(1 << i for i in held) for held in groups]
    return masks, [reduce(or_, (rows[i] for i in held), 0) for held in groups]


def _conflicting_ordered_pairs(assignments: AssignmentSet) -> int:
    """Exact count of ordered person pairs holding any conflicting stances.

    People are grouped by their held-stance signature, so each distinct
    combination of stances is checked once against each other; this keeps
    multi-stance holders exact (a pair conflicting through several stance
    pairs is still one pair) and costs O(k^2 + m*k + m^2) for m signatures
    instead of O(n^2) person pairs.
    """
    masks, opposing = _group_masks(assignments)
    sizes = list(assignments._groups.values())
    total = 0
    for a in range(len(masks)):
        if masks[a] & opposing[a]:
            total += sizes[a] * sizes[a]
        for b in range(a + 1, len(masks)):
            if masks[b] & opposing[a]:
                total += 2 * sizes[a] * sizes[b]
    return total


def contention_general(assignments: AssignmentSet, *, k_mode: KMode = "declared") -> ContentionResult:
    """Exact contention for the general (possibly overlapping) stance model.

    Counts ordered pairs drawn with replacement, so the diagonal (p, p) is
    included: a person holding two conflicting stances is an intrapersonal
    conflict and contributes.  The self-pair counts once no matter how many
    conflicting stance combinations the pair realizes.
    """
    n = assignments.n
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    num = _conflicting_ordered_pairs(assignments)
    k = _norm_k(assignments.space.k, assignments.observed_k, k_mode)
    return _result_from_ratio(
        num, n * n, k=k, population=n, method="general-exact", flt=assignments.filter
    )


def contention_sampled(
    assignments: AssignmentSet,
    samples: int,
    seed: int,
    *,
    k_mode: KMode = "declared",
) -> ContentionResult:
    """Monte Carlo estimate of the general model for very large inputs.

    Draws ``samples`` ordered pairs uniformly with replacement from a
    seeded PCG64 generator; the same seed and inputs always reproduce the
    same estimate.
    """
    n = assignments.n
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import numpy as np

    space = assignments.space
    # each person's signature index, numbered in order of first appearance;
    # the hit count does not depend on how signatures are numbered
    sig_index = {held: i for i, held in enumerate(assignments._groups)}
    people = assignments.assignments
    person_sig = np.fromiter(map(sig_index.__getitem__, people), dtype=np.int64, count=n)
    masks, opposing = _group_masks(assignments)
    conflict = np.array([[bool(b & opp) for b in masks] for opp in opposing], dtype=bool)

    rng = np.random.default_rng(seed)
    first = person_sig[rng.integers(0, n, size=samples)]
    second = person_sig[rng.integers(0, n, size=samples)]
    hits = int(conflict[first, second].sum())
    k = _norm_k(space.k, assignments.observed_k, k_mode)
    return _result_from_ratio(
        hits, samples, k=k, population=n, method="general-sampled",
        samples=samples, seed=seed, flt=assignments.filter,
    )


def sampled_from_counts(
    counts: StanceCounts,
    samples: int,
    seed: int,
    *,
    k_mode: KMode = "declared",
) -> ContentionResult:
    """Sampled estimator over counts, without materializing the people.

    Drawing a person uniformly and reading off their stance is the same as
    drawing a stance index with probability proportional to its count, so
    huge populations sample in O(samples) regardless of size.
    """
    n = counts.total
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import numpy as np

    space = counts.space
    matrix = np.array(space.conflicts, dtype=bool)
    weights = np.array(counts.counts, dtype=np.float64) / n
    rng = np.random.default_rng(seed)
    first = rng.choice(space.k + 1, size=samples, p=weights)
    second = rng.choice(space.k + 1, size=samples, p=weights)
    hits = int(matrix[first, second].sum())
    k = _norm_k(space.k, counts.observed_k, k_mode)
    return _result_from_ratio(
        hits, samples, k=k, population=n, method="general-sampled",
        samples=samples, seed=seed, flt=counts.filter,
    )


def restrict(data, flt: SubpopulationFilter):
    """Slice a population to the sub-group matched by ``flt``.

    StanceCounts resolve the single attribute ``"stance"``: counts whose
    stance id is not allowed drop to zero, shrinking the population while
    preserving the stance structure.  AssignmentSets additionally resolve
    any per-person attribute; a person is kept when every criterion holds
    ("stance" matches if any held stance id is allowed).  The filter is
    recorded on the returned value for provenance.
    """
    if isinstance(data, StanceCounts):
        return _restrict_counts(data, flt)
    if isinstance(data, AssignmentSet):
        return _restrict_assignments(data, flt)
    raise TypeError(f"cannot restrict {type(data).__name__}")


def _restrict_counts(counts: StanceCounts, flt: SubpopulationFilter) -> StanceCounts:
    unknown = [attr for attr in flt.attributes() if attr != "stance"]
    if unknown:
        raise UnknownAttribute(f"counts only resolve the 'stance' attribute, not {unknown}")
    if flt.is_always_true:
        return StanceCounts(counts.space, counts.counts, flt)
    kept = tuple(
        c if all(sid in allowed for _, allowed in flt.criteria) else 0
        for sid, c in zip(counts.space.all_ids, counts.counts)
    )
    return StanceCounts(counts.space, kept, flt)


def _restrict_assignments(assignments: AssignmentSet, flt: SubpopulationFilter) -> AssignmentSet:
    attributes = assignments.attributes
    known = {"stance"}
    for attrs in attributes or ():
        known.update(attrs)
    unknown = [attr for attr in flt.attributes() if attr not in known]
    if unknown:
        raise UnknownAttribute(f"no person carries attribute(s) {unknown}")

    people = assignments.assignments
    all_ids = assignments.space.all_ids
    stance = [allowed for attr, allowed in flt.criteria if attr == "stance"]
    others = [(attr, allowed) for attr, allowed in flt.criteria if attr != "stance"]
    # every criterion must hold: the stance criteria are decided once per
    # distinct held set, the other criteria once per person
    stance_ok = {
        held: all(not allowed.isdisjoint(all_ids[i] for i in held) for allowed in stance)
        for held in assignments._groups
    }
    keep = [
        stance_ok[held] and all(attrs.get(attr) in allowed for attr, allowed in others)
        for held, attrs in zip(people, attributes or repeat({}))
    ]
    return AssignmentSet(
        assignments.space,
        tuple(compress(people, keep)),
        tuple(compress(attributes, keep)) if attributes is not None else None,
        flt,
    )
