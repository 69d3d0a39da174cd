"""The stance and population data model, and contention scoring.

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
equal one, is checked in full.  A space is exclusive when its matrix is
the memo's matrix for its k or equals it, so a copied or unpickled space
stays exclusive.

The table loaders share spaces: within one load, every topic that lists
the same explicit stances in the same order holds one ``StanceSpace``.

Each ``AssignmentSet`` groups its people by held set once, when it is
built, and checks each distinct set once; the scorers, ``observed_k``,
``to_counts`` and ``restrict`` read that grouping instead of regrouping.

numpy is imported by the two samplers when they are first called, so
loading the package and the closed-form paths never pay for it.  For a
given seed they make exactly the draws of ``Generator.integers`` (people)
and ``Generator.choice`` (stance counts).  ``contention_sampled`` keeps two
bitmasks per distinct held set, its stances and the stances they conflict
with, as uint64 words (one narrower word when k < 64), so its cost grows
with the distinct sets, not with their square.  People are drawn as uint32
(int64 past 2**32 people).  Both samplers draw, map and count in blocks of
2**16 draws: the stream gives all of one side before the other, so only
the first side is held whole, in the narrowest unsigned dtype, and each
block of the second is counted as it is drawn.  At their peak both hold
about 1 byte per draw (up to 256 distinct held sets, or 254 stances).

Counts are Python ints, so numerator products are exact at any population
size; the single final float division carries relative error ~1e-16.

A ``ContentionResult`` holds eight slotted fields; ``non_contention_raw``
and ``non_contention_normalized`` are properties computing ``1.0 - raw``
and ``1.0 - normalized``.  Every scorer finishes in one builder, ``_scored``,
and counts ``observed_k`` only under ``k_mode="observed"``.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, repeat
from typing import Iterable, Literal, Mapping, Sequence

from .errors import EmptyPopulation, NonExclusiveSpace, UnknownAttribute

#: The stance id reserved for the no-stance sentinel (index 0 in every space).
NO_STANCE = "__none__"

Method = Literal["exclusive-closed-form", "general-exact", "general-sampled"]
KMode = Literal["declared", "observed"]


class _StanceIndex(dict):
    """A stance id -> index map whose unknown ids raise a KeyError naming them."""

    def __missing__(self, stance_id: str) -> int:
        raise KeyError(f"unknown stance id {stance_id!r}")


def _checked_conflicts(
    conflicts: Iterable[Iterable[object]], size: int
) -> tuple[tuple[bool, ...], ...]:
    """``conflicts`` as a size x size tuple of bools, checked for a zero
    diagonal, a conflict-free sentinel and symmetry."""
    matrix = tuple(tuple(map(bool, row)) for row in conflicts)
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise ValueError(f"conflict matrix must be {size}x{size} (index 0 = no stance)")
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
    return matrix


def _checked_ids(stance_ids: Iterable[str]) -> tuple[str, ...]:
    """``stance_ids`` as a tuple, each checked in turn for empty or reserved."""
    ids = tuple(stance_ids)
    for sid in ids:
        if not sid:
            raise ValueError("stance id must be non-empty")
        if sid == NO_STANCE:
            raise ValueError(f"{NO_STANCE!r} is reserved for the no-stance sentinel")
    return ids


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
        matrix = _EXCLUSIVE_MATRICES.setdefault(k, _checked_conflicts(rows, k + 1))
    return matrix


@dataclass(frozen=True)
class StanceSpace:
    """The explicit stance ids plus the implicit no-stance sentinel.

    ``conflicts`` is a dense (k+1) x (k+1) boolean matrix indexed like the
    counts: row/column 0 is the sentinel.  Construction validates symmetry
    and rejects asymmetric input rather than silently symmetrizing.
    """

    ids: tuple[str, ...]
    conflicts: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        ids = _checked_ids(self.ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate stance ids: {list(ids)}")
        object.__setattr__(self, "ids", ids)
        # the memo's own matrix for this k was checked when it was stored
        if self.conflicts is None or self.conflicts is not _EXCLUSIVE_MATRICES.get(len(ids)):
            object.__setattr__(self, "conflicts", _checked_conflicts(self.conflicts, len(ids) + 1))

    @classmethod
    def exclusive(cls, stance_ids: Sequence[str]) -> StanceSpace:
        """Space where every explicit stance conflicts with every other one."""
        ids = tuple(stance_ids)
        return cls(ids, _exclusive_matrix(len(ids)))

    @classmethod
    def from_conflict_pairs(
        cls, stance_ids: Sequence[str], conflicting: Iterable[tuple[str, str]]
    ) -> StanceSpace:
        """Space with an explicit list of conflicting stance-id pairs."""
        ids = _checked_ids(stance_ids)
        index = {sid: i for i, sid in enumerate(ids, 1)}
        rows = [[False] * (len(ids) + 1) for _ in range(len(ids) + 1)]
        for a, b in conflicting:
            if a not in index or b not in index:
                raise ValueError(f"unknown stance in conflict pair ({a!r}, {b!r})")
            if a == b:
                raise ValueError("a stance cannot conflict with itself")
            rows[index[a]][index[b]] = True
            rows[index[b]][index[a]] = True
        return cls(ids, tuple(tuple(r) for r in rows))

    @property
    def k(self) -> int:
        """Number of explicit stances (the sentinel not included)."""
        return len(self.ids)

    @property
    def all_ids(self) -> tuple[str, ...]:
        """Sentinel first, then explicit stance ids, in index order."""
        return (NO_STANCE,) + self.ids

    def _indices(self) -> _StanceIndex:
        """Each stance id -> its index, with ``__none__`` -> 0.  Built per call and
        not stored: a space holds only its ids and its matrix."""
        return _StanceIndex(zip(self.all_ids, range(self.k + 1)))

    def is_exclusive(self) -> bool:
        """True when the matrix is the memo's all-pairs matrix for k or equals it."""
        shared = _exclusive_matrix(self.k)
        return self.conflicts is shared or self.conflicts == shared


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

    def attributes(self) -> tuple[str, ...]:
        return tuple(attr for attr, _ in self.criteria)


@dataclass(frozen=True, slots=True)
class StanceCounts:
    """Per-stance population counts for one topic/population slice.

    ``counts[0]`` is the no-stance group; ``counts[i]`` for i >= 1 follow
    ``space.ids`` order.  The population size is the sum of all counts.
    """

    space: StanceSpace
    counts: tuple[int, ...]
    filter: SubpopulationFilter | None = None

    def __post_init__(self) -> None:
        # via a list: tuple(map(...)) can keep the larger block it grew into
        counts = tuple(list(map(int, self.counts)))
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


@dataclass(frozen=True, slots=True)
class ContentionResult:
    """Raw and normalized contention; the complement scores are properties.

    ``k`` is the stance count used for normalization: the declared k of the
    stance space by default, or the observed nonzero count under
    ``k_mode="observed"``.  ``samples``/``seed`` are set only for the
    sampled estimator.
    """

    raw: float
    normalized: float
    k: int
    population: int
    method: Method
    samples: int | None = None
    seed: int | None = None
    filter: SubpopulationFilter | None = field(default=None, compare=False)

    @property
    def non_contention_raw(self) -> float:
        return 1.0 - self.raw

    @property
    def non_contention_normalized(self) -> float:
        return 1.0 - self.normalized


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


def _norm_k(of: StanceCounts | AssignmentSet, k_mode: KMode) -> int:
    """The k that normalizes a score of ``of``: its space's declared k, or its
    observed nonzero count, which is counted only under ``"observed"``."""
    if k_mode == "declared":
        return of.space.k
    if k_mode == "observed":
        return of.observed_k
    raise ValueError(f"k_mode must be 'declared' or 'observed', got {k_mode!r}")


def _scored(num: int, den: int, of: StanceCounts | AssignmentSet, population: int,
            method: Method, k_mode: KMode, samples: int | None = None,
            seed: int | None = None) -> ContentionResult:
    """The result of the score ``num / den`` of ``of``, normalized by the k
    of ``k_mode`` and carrying ``of``'s filter."""
    # One division per score keeps the integer arithmetic exact up to the
    # final rounding, and makes the closed form and the general path agree
    # bit-for-bit on identical populations.  A sampled estimate (hits over
    # draws) is normalized from its rounded raw value instead: the two can
    # differ in the last bit, which moves printed digits of sampled runs
    # whose estimate sits on a rounding tie.
    k = _norm_k(of, k_mode)
    raw = num / den
    if samples is None:
        normalized = (num * k) / (den * (k - 1)) if k >= 2 else 0.0
    else:
        normalized = normalize_contention(raw, k)
    return ContentionResult(raw, normalized, k, population, method, samples, seed, of.filter)


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
    g = counts.explicit
    n_s = sum(g)
    n = n_s + counts.counts[0]
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    num = n_s * n_s - sum(x * x for x in g)
    return _scored(num, n * n, counts, n, "exclusive-closed-form", k_mode)


def _group_masks(assignments: AssignmentSet) -> tuple[list[int], list[int]]:
    """For each distinct held set, in order of first appearance, its bitmask
    and the bitmask of the stances that conflict with any stance in it."""
    rows = [sum(1 << j for j, c in enumerate(row) if c) for row in assignments.space.conflicts]
    groups = assignments._groups
    masks = [sum(1 << i for i in held) for held in groups]
    return masks, [reduce(operator.or_, (rows[i] for i in held), 0) for held in groups]


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
    return _scored(num, n * n, assignments, n, "general-exact", k_mode)


#: draws handled per step when sampled draws are mapped and counted
_BLOCK = 1 << 16


def _words(masks: Sequence[int], k: int):
    """Bitmasks over stance indices 0..k as a ``(words, len(masks))`` array:
    row w holds bits 64w..64w+63 of every mask, in uint64 words, or all of
    them in one word of the narrowest unsigned dtype when k < 64."""
    import numpy as np

    dtype = np.dtype(np.uint64) if k >= 64 else np.min_scalar_type((1 << (k + 1)) - 1)
    bits = 8 * dtype.itemsize
    width = (k + bits) // bits
    joined = b"".join(mask.to_bytes(width * dtype.itemsize, "little") for mask in masks)
    words = np.frombuffer(joined, dtype=dtype.newbyteorder("<")).reshape(len(masks), width)
    return np.ascontiguousarray(words.T, dtype=dtype)


def _draw_count(samples) -> int:
    """``samples`` read by ``operator.index`` (TypeError for a float or a
    str); ValueError below 1, MemoryError past the largest array length."""
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > sys.maxsize:
        raise MemoryError("samples is more draws than one array can hold")
    return samples


def _draw_pairs(samples: int, dtype, draw):
    """The two sides' ``samples`` draws as ``(first, second)`` blocks of up to
    ``_BLOCK`` draws each, where ``draw(m)`` makes the next m draws in
    ``dtype``.  The stream gives all of side 1 before side 2, so side 1 is
    drawn whole, one block at a time, and held in ``dtype``; each block of
    side 2 is drawn as it is yielded and then dropped."""
    import numpy as np

    first = np.empty(samples, dtype=dtype)
    starts = range(0, samples, _BLOCK)
    for start in starts:
        first[start:start + _BLOCK] = draw(min(_BLOCK, samples - start))
    for start in starts:
        yield first[start:start + _BLOCK], draw(min(_BLOCK, samples - start))


def _count_word_hits(opposing, held, blocks) -> int:
    """Number of draws i for which ``opposing[:, a[i]] & held[:, b[i]]`` is
    nonzero in some word (see ``_words``), over the ``(a, b)`` blocks of
    ``_draw_pairs``, so no temporary grows past ``_BLOCK`` words."""
    import numpy as np

    hits = 0
    for a, b in blocks:
        found = opposing[0].take(a)
        found &= held[0].take(b)
        for opp, mask in zip(opposing[1:], held[1:]):
            word = opp.take(a)
            word &= mask.take(b)
            found |= word
        hits += int(np.count_nonzero(found))
    return hits


def _count_hits(conflicts: Sequence[Sequence[bool]], blocks) -> int:
    """Number of draws i with ``conflicts[a[i]][b[i]]`` over the ``(a, b)``
    blocks of ``_draw_pairs``, read from the flattened square matrix, so no
    temporary grows past ``_BLOCK`` cell indices."""
    import numpy as np

    flat = np.frombuffer(b"".join(map(bytes, conflicts)), dtype=bool)
    width = len(conflicts)
    hits = 0
    for a, b in blocks:
        cells = a.astype(np.intp)
        cells *= width
        cells += b
        hits += int(np.count_nonzero(flat[cells]))
    return hits


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
    samples = _draw_count(samples)
    n = assignments.n
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    import numpy as np

    space = assignments.space
    # each person's signature index, numbered in order of first appearance
    # and held in the narrowest unsigned dtype; the hit count does not
    # depend on how signatures are numbered
    sig_index = {held: i for i, held in enumerate(assignments._groups)}
    people = assignments.assignments
    dtype = np.min_scalar_type(len(sig_index) - 1)
    person_sig = np.fromiter(map(sig_index.__getitem__, people), dtype=dtype, count=n)
    masks, opposing = _group_masks(assignments)

    rng = np.random.default_rng(seed)
    # up to 2**32 people the bounded draws come from one 32-bit generator
    # whatever the output dtype, so uint32 draws are the int64 ones; a call
    # keeps no state but the generator's (its spare 32-bit half included),
    # so one block per call draws what one call per side draws.  mode="clip"
    # moves no index in range and spares the copy the default mode makes
    drawn = np.uint32 if n <= 1 << 32 else np.int64
    blocks = _draw_pairs(samples, dtype, lambda m: person_sig.take(
        rng.integers(0, n, size=m, dtype=drawn), mode="clip"))
    hits = _count_word_hits(_words(opposing, space.k), _words(masks, space.k), blocks)
    return _scored(hits, samples, assignments, n, "general-sampled", k_mode, samples, seed)


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

    The draws are those of two ``Generator.choice(k + 1, size=samples,
    p=weights)`` calls: ``samples`` uniforms each, read against
    ``cdf = cumsum(weights); cdf /= cdf[-1]`` with ``side="right"``.  A
    uniform is mapped through a table over 2**bits equal slices of [0, 1):
    a slice that no cdf edge cuts gives its stance at once, and only a
    uniform in a cut slice is searched for.
    """
    samples = _draw_count(samples)
    n = counts.total
    if n == 0:
        raise EmptyPopulation("contention is undefined for an empty population")
    import numpy as np

    space = counts.space
    # count / n correctly rounded: for n < 2**53 the float64 quotient of
    # float64 operands, and still a float in [0, 1] when n is too large
    # for a float64
    cdf = np.array([c / n for c in counts.counts]).cumsum()
    cdf /= cdf[-1]
    # the table grows with the draws it serves, up to 4096 slices; scaling
    # by a power of two is exact, so uniform * size keeps every comparison
    size = 1 << min(12, samples.bit_length() // 2 + 4)
    edges = cdf * size
    starts = edges.searchsorted(np.arange(size + 1, dtype=np.float64), side="right")
    cut = space.k + 1  # marks a slice a cdf edge may cut
    dtype = np.min_scalar_type(cut)
    table = np.where(starts[:-1] == starts[1:], starts[:-1], cut).astype(dtype)

    rng = np.random.default_rng(seed)

    def draw(m):
        uniform = rng.random(m)
        uniform *= size
        stance = table[uniform.astype(np.intp)]
        searched = stance == cut
        if searched.any():
            stance[searched] = edges.searchsorted(uniform[searched], side="right")
        return stance

    hits = _count_hits(space.conflicts, _draw_pairs(samples, dtype, draw))
    return _scored(hits, samples, counts, n, "general-sampled", k_mode, samples, seed)


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
