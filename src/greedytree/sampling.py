"""Sample-driven top-down induction: schedules, estimators, and the builder.

The practical builder never computes an exact probability.  It maintains
three kinds of sample pools, each with a per-step floor that grows with the
step counter j so that a union bound over all steps stays below the failure
budget delta:

* pools of labeled pairs (x, x') with x' equal to x except that one
  coordinate i is redrawn, one pool per coordinate -- these feed the
  split-score estimates;
* a pool of labeled points for majority leaf labeling;
* an independent pool of labeled points for the stopping test.

Every pool is a bare code array in the smallest unsigned dtype that holds
n bits (uint16 at n = 12, uint32 at n = 20), partitioned across the current
leaves: each sample lives at the leaf its first element reaches.  The
labeling and stopping-test points are kept in one array per label, so every
count the builder reads is an array length, and the pools' bytes are the
floors times that dtype's size.  When a leaf splits, each of its arrays is
partitioned by the split bit.  A fresh batch is routed code by code with
:func:`~greedytree.core.route_codes`, and one stable sort by leaf cuts each
leaf's share from it, so per-leaf counts follow the correct conditional
law while the pool totals meet the floors exactly.

Draws, labels and routing stay on uint64 codes.  A top-up or pair draw is
drawn in one piece, then labeled, routed and collected one slice of
``_SLICE`` points at a time, and each pool grows by one concatenation per
top-up.  So a top-up's transient memory is its draw plus one slice's work,
whatever its size, and the pools come out as one whole pass would leave
them.

All coordinates share one draw of x per step.  The step draws ``d_pairs``
points x, then ``d_pairs`` more points y of the same distribution, and pairs
x with x' = x except that bit i is y's bit for i, for every coordinate i.
So coordinate i's pool gets ``d_pairs`` new pairs, each an x ~ mu with bit i
redrawn.

A pair contributes to a leaf's score estimate only when both endpoints
reach the leaf and the labels disagree.  If the redrawn coordinate is not
queried on the leaf's path, both endpoints reach it together; if it is
queried, the endpoints either coincide (labels equal) or separate, so the
contribution is zero either way.  The estimate divides by the full pool
size, which makes it an unbiased estimator of the true score -- a property
the test suite checks by Monte Carlo against the exact engine.
:func:`draw_pair_batch` is that estimator; the builder and the unbiasedness
check in :mod:`greedytree.verify` make the same call, once per step and
once per resample.

Sharing x is sound.  For each leaf and coordinate the estimate is still the
mean of ``pair_floor`` iid indicators, each of the law a pair drawn for that
coordinate alone has, so each one's Hoeffding bound holds as before.  The
estimates of different coordinates now depend on each other, but the union
bound over coordinates, leaves and steps needs no independence between the
events it adds up.

Only the pairs that can count are labeled.  A pair whose redrawn bit equals
x_i has x' = x, so its labels agree; this is the 2 p_i (1 - p_i) factor in
the closed form of the influence in :mod:`greedytree.exact`.  A pair whose
flipped coordinate is queried on the path of the leaf x reaches has its
endpoints at different leaves, so it counts at no leaf; nor can it later,
because every leaf below that one queries the coordinate too.  Skipped pairs
are still drawn and still counted in the pool total, so every estimate is
the one labeling all pairs gives.  Each x with a pair left is labeled once,
and each flipped x ^ (1 << i) of such a pair once.

So the builder keeps, per leaf and coordinate off its path, only the x
codes of the pairs whose labels disagree, and a leaf's hit count is the
length of that array.  The redrawn endpoint is not needed: off the leaf's
path it routes with x.

Termination: label every leaf by the majority of its labeling points (ties
go to +1), count the leaf's stopping-pool points of the other label as its
mismatches, and stop once the total mismatch fraction is at most 3/4 of the
working accuracy.

A step j runs in this order:

1. top the labeling and stopping-test pools up to their step-j floors;
2. run the stopping test, then the ``max_splits`` check;
3. only if both fail, top the pair pools up to their step-j floor from the
   step's pair stream, score every candidate and split the best.

The builder cannot know in advance which step will be its last, so it does
not pay for that step in advance: a step that ends the run by step 2 draws
and labels no pair.  Every stream is keyed by (seed, purpose, step), so
skipping that draw moves no other draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BareLeaf,
    BareTree,
    CountingOracle,
    DecisionTree,
    ProductDistribution,
    TargetOracle,
    label_leaves,
    route_codes,
    split_leaf,
)

__all__ = [
    "PairBatch",
    "PracticalResult",
    "PracticalStep",
    "UsageRow",
    "build_topdown_practical",
    "draw_pair_batch",
    "error_schedule",
    "labeling_schedule",
    "pair_schedule",
]


# ---------------------------------------------------------------------------
# Sample-count schedules
# ---------------------------------------------------------------------------


def _check_step_params(j: int, epsilon: float, delta: float) -> None:
    if j < 1:
        raise ValueError(f"step counter must be >= 1, got {j}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")


def pair_schedule(j: int, delta: float, epsilon: float, n: int) -> int:
    """Per-variable floor on the score-estimation pair pool at step j.

    ceil( 12(j+1)n/eps * ln(4 j^2 (j+1) n / delta) ); nondecreasing in j.
    """
    _check_step_params(j, epsilon, delta)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.ceil(12.0 * (j + 1) * n / epsilon * math.log(4.0 * j * j * (j + 1) * n / delta))


def labeling_schedule(j: int, epsilon: float, delta: float) -> int:
    """Floor on the leaf-labeling pool at step j.

    ceil( 128((j+1) ln 2 + ln(16 j^2 / delta)) / eps^2 ).  Sized so that the
    majority labeling's excess error over the best labeling is at most
    eps/8 with probability 1 - delta/(8 j^2).
    """
    _check_step_params(j, epsilon, delta)
    return math.ceil(
        128.0 * ((j + 1) * math.log(2.0) + math.log(16.0 * j * j / delta)) / (epsilon * epsilon)
    )


def error_schedule(j: int, epsilon: float, delta: float) -> int:
    """Floor on the stopping-test pool at step j: ceil( 32/eps^2 * ln(16 j^2/delta) )."""
    _check_step_params(j, epsilon, delta)
    return math.ceil(32.0 / (epsilon * epsilon) * math.log(16.0 * j * j / delta))


# ---------------------------------------------------------------------------
# Pair sampling and the split-score estimator
# ---------------------------------------------------------------------------


# Points labeled, routed and collected at a time.  A slice's transient
# arrays, not a whole top-up's, are what each top-up adds to its draw.
_SLICE = 1 << 16


def _runs(keys: np.ndarray, values: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group ``values`` by their unsigned ``keys``: each key present, in
    ascending order, with its values in their order in ``values``.

    One stable argsort cuts every group; on keys of 16 bits or fewer numpy
    sorts it by radix.
    """
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys)
    ends = counts.cumsum()
    grouped = values[order]
    return [(int(k), grouped[ends[k] - counts[k]:ends[k]]) for k in np.flatnonzero(counts)]


@dataclass(frozen=True)
class PairBatch:
    """The labeled pairs of one shared draw of points x, and their hits.

    Each x is paired, for every coordinate i, with x' equal to x except
    that bit i is redrawn.  A pair is labeled only when its redrawn bit came
    out different from x's, so that x' is x with bit i flipped, and i is not
    queried on the path of the leaf x reaches.  ``x_labels`` and
    ``alt_labels`` hold the labels of x and x', one entry per labeled pair,
    coordinate by coordinate in ascending order and in draw order within a
    coordinate, and ``len`` counts the labeled pairs.  ``hits[leaf, i]``
    holds, in draw order, the uint64 x at ``leaf`` whose pair for i
    disagrees; a key with no hit is left out, and the keys are sorted by
    leaf id, then i.  Estimates divide by the number of points drawn, the
    caller's ``count``; the oracle counts the label queries.
    """

    x_labels: np.ndarray
    alt_labels: np.ndarray
    hits: dict[tuple[int, int], np.ndarray]

    def __len__(self) -> int:
        return len(self.x_labels)


def draw_pair_batch(
    oracle: TargetOracle,
    dist: ProductDistribution,
    rng: np.random.Generator,
    count: int,
    bare: BareTree,
) -> PairBatch:
    """Draw ``count`` points x, pair each with a redraw of every coordinate,
    label the pairs that can count, and score them at the leaves of ``bare``.

    The redrawn bits are one more draw y of ``dist``: bit i of y equals x_i
    with probability 1 - 2 p_i (1 - p_i), and then x' = x and the pair
    cannot disagree.  So the stream is ``count`` codes of ``dist`` twice,
    and the bits that flipped are x ^ y.

    Each slice of ``_SLICE`` points is routed with :func:`route_codes`,
    and one gather of each x's leaf's path mask clears from x ^ y the
    coordinates queried on that path; the pairs left are labeled.  The
    slice's x that disagree, coordinate by coordinate, are keyed
    (leaf id, i) and cut into runs by one stable sort, so each run keeps
    draw order; each run is appended to the parts of its key, which are
    concatenated once every slice is done (a key with one part keeps it).
    """
    n = dist.n
    x = dist.draw_codes(rng, count)
    flips = dist.draw_codes(rng, count)
    flips ^= x
    keep = np.zeros(bare._next_id, dtype=np.uint64)  # by leaf id: the bits off its path
    for leaf_id, path in bare._paths.items():
        keep[leaf_id] = ~np.uint64(sum(1 << v for v, _ in path))
    key_type = np.min_scalar_type(bare._next_id * n - 1)  # (leaf id, i) as id * n + i
    x_labels, alt_labels = [[] for _ in range(n)], [[] for _ in range(n)]
    found: dict[tuple[int, int], list[np.ndarray]] = {}  # by (leaf id, i): hits per slice
    for start in range(0, max(count, 1), _SLICE):  # count 0 is one empty slice
        xs, fs = x[start:start + _SLICE], flips[start:start + _SLICE]
        leaf_of = route_codes(bare, xs).astype(key_type)
        fs &= keep[leaf_of]
        # Index arrays: on numpy 2.4 a boolean-mask gather of uint64 codes took
        # about 2.5x as long as flatnonzero followed by the integer gather, and
        # flatnonzero of a uint64 word about 6x as long as of its test != 0.
        some = np.flatnonzero(fs != 0)
        labels = np.zeros(len(xs), dtype=np.int8)
        labels[some] = oracle.label_codes(xs[some])
        hits, keys = [], []
        for i in range(n):
            bit = np.uint64(1 << i)
            idx = np.flatnonzero((fs & bit) != 0)
            x_labels[i].append(labels[idx])
            alt_labels[i].append(oracle.label_codes(xs[idx] ^ bit))
            hits.append(idx[np.flatnonzero(x_labels[i][-1] != alt_labels[i][-1])])
            keys.append(leaf_of[hits[-1]] * key_type.type(n) + key_type.type(i))
        for key, part in _runs(np.concatenate(keys), xs[np.concatenate(hits)]):
            found.setdefault(divmod(key, n), []).append(part)
    return PairBatch(
        np.concatenate([part for parts in x_labels for part in parts]),
        np.concatenate([part for parts in alt_labels for part in parts]),
        {key: parts[0] if len(parts) == 1 else np.concatenate(parts)
         for key, parts in sorted(found.items())},
    )


# ---------------------------------------------------------------------------
# Builder state
# ---------------------------------------------------------------------------


# Keys of the derived random streams, which also key each leaf's pools.
_LL_STREAM, _EE_STREAM, _PAIR_STREAM = 1, 2, 3


@dataclass
class _LeafState:
    """One leaf's share of the pools, each a bare code array in the
    builder's pool dtype, the smallest unsigned one that holds n bits.

    ``pools[_LL_STREAM, label]`` and ``pools[_EE_STREAM, label]`` hold the
    leaf's labeling and stopping-test points of each label, +1 and -1.
    ``pools[_PAIR_STREAM, i]`` holds, for each coordinate i off the leaf's
    path, the x codes of the pairs that disagree at the leaf; these keys
    are the leaf's splittable coordinates, in ascending order.  Every count
    is an array length: the label is the labeling pool's majority (ties to
    +1), the mismatches are the stopping-test points of the other label,
    and the hit count for i is the length of the pair pool of i.
    """

    pools: dict[tuple[int, int], np.ndarray]

    @property
    def label(self) -> int:
        return 1 if len(self.pools[_LL_STREAM, 1]) >= len(self.pools[_LL_STREAM, -1]) else -1

    @property
    def mismatches(self) -> int:
        return len(self.pools[_EE_STREAM, -self.label])

    def deposit(self, key: tuple[int, int], parts: list[np.ndarray]) -> None:
        """Append ``parts`` in order to the pool of ``key``, cast to its dtype."""
        pool = self.pools[key]
        self.pools[key] = np.concatenate([pool, *parts], dtype=pool.dtype)

    def split(self, coord: int) -> tuple["_LeafState", "_LeafState"]:
        """The children with x_coord = 0, then 1.  Every pool is partitioned
        by the bit; the pair pool of ``coord`` is dropped, as the children
        query it.  Each pool leaves this state as it is partitioned, so
        one pool at a time has its old and its new copies alive; the state
        is left empty."""
        lo, hi = {}, {}
        for key in list(self.pools):
            codes = self.pools.pop(key)
            if key != (_PAIR_STREAM, coord):
                side = (codes & codes.dtype.type(1 << coord)) != 0
                lo[key], hi[key] = codes[np.flatnonzero(~side)], codes[np.flatnonzero(side)]
        return _LeafState(lo), _LeafState(hi)


def _labeled_shares(
    oracle: TargetOracle, bare: BareTree, codes: np.ndarray, dtype: np.dtype
) -> dict[tuple[int, int], list[np.ndarray]]:
    """Label the uint64 ``codes`` and route them, one slice at a time.
    Returns, by (leaf id, label), the parts of the codes of that label that
    reach that leaf, in draw order and cast to ``dtype``."""
    key_type = np.min_scalar_type(2 * bare._next_id - 1)  # (leaf id, label) as 2 id + (label > 0)
    shares: dict[tuple[int, int], list[np.ndarray]] = {}
    for start in range(0, len(codes), _SLICE):
        chunk = codes[start:start + _SLICE]
        keys = route_codes(bare, chunk).astype(key_type) << key_type.type(1)
        keys |= oracle.label_codes(chunk) > 0
        for key, part in _runs(keys, chunk.astype(dtype)):
            shares.setdefault((key >> 1, 1 if key & 1 else -1), []).append(part)
    return shares


@dataclass(frozen=True)
class PracticalStep:
    """Decision record for one loop iteration."""

    step: int
    leaf_count: int
    mismatches: int
    error_samples: int
    terminated: bool
    split_leaf: int | None
    split_coord: int | None
    best_estimate: float | None


@dataclass(frozen=True)
class UsageRow:
    """Cumulative sampling effort after the pools were topped up for step j.

    The floors are those the pools hold, ``pair_floor`` per coordinate.  A
    step that ends the run by the stopping test or ``max_splits`` draws no
    pair, so in its row ``pair_floor`` is the previous step's floor, or 0 at
    step 1.  ``label_queries`` is the builder's :class:`CountingOracle`
    count.  ``random_draws`` counts each point drawn once:
    ``labeling_floor + error_floor + 2 * pair_floor``, a pair being one
    point x and one point y of redrawn bits.
    """

    step: int
    leaves: int
    pair_floor: int
    labeling_floor: int
    error_floor: int
    label_queries: int
    random_draws: int


@dataclass(frozen=True)
class PracticalResult:
    """The grown tree and its record; ``label_queries`` and ``random_draws``
    are the totals of the last :class:`UsageRow`: the builder's oracle
    wrapper's count, and the floors' draws.  They count pairs for the steps
    that split, and for a last step that found no splittable leaf, but none
    for a last step that the stopping test or ``max_splits`` ended."""

    tree: DecisionTree
    bare: BareTree
    steps: tuple[PracticalStep, ...]
    usage: tuple[UsageRow, ...]
    terminated: bool
    stop_reason: str
    label_queries: int
    random_draws: int
    epsilon: float
    delta: float
    seed: int

    @property
    def splits(self) -> int:
        return sum(1 for s in self.steps if s.split_leaf is not None)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def build_topdown_practical(
    oracle: TargetOracle,
    dist: ProductDistribution,
    epsilon: float,
    delta: float,
    seed: int,
    max_splits: int | None = None,
) -> PracticalResult:
    """Parameter-free sample-driven greedy induction.

    Derived random streams are keyed by (purpose, step), so a fixed
    ``seed`` reproduces the run bit for bit.  Returns the majority
    labeling of the grown bare tree; ``terminated`` is False when
    ``max_splits`` ran out (or no splittable leaf remained) before the
    stopping test passed.
    """
    _check_step_params(1, epsilon, delta)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    n = dist.n
    if oracle.n != n:
        raise ValueError(f"oracle has n={oracle.n}, distribution has n={n}")
    if max_splits is None:
        max_splits = 1 << min(n, 62)
    elif max_splits < 0:
        raise ValueError(f"max_splits must be >= 0, got {max_splits}")

    bare = BareTree(BareLeaf(0))
    keys = [(s, label) for s in (_LL_STREAM, _EE_STREAM) for label in (1, -1)]
    keys += [(_PAIR_STREAM, i) for i in range(n)]
    dtype = np.min_scalar_type((1 << n) - 1)  # the pools' codes: n bits each
    states = {0: _LeafState(dict.fromkeys(keys, np.empty(0, dtype=dtype)))}
    pair_floor = 0  # per coordinate; topped up only in a step that may split
    floors = (0, 0)  # labeling and stopping-test floors
    oracle = CountingOracle(oracle)  # owns every label-query count reported
    steps: list[PracticalStep] = []
    usage: list[UsageRow] = []

    for j in itertools.count(1):
        # Top the labeling and stopping-test pools up to their step-j
        # floors; a zero increment draws nothing.
        new_floors = (labeling_schedule(j, epsilon, delta), error_schedule(j, epsilon, delta))
        d_ll, d_ee = (new - old for new, old in zip(new_floors, floors))
        floors = new_floors
        for stream, count in ((_LL_STREAM, d_ll), (_EE_STREAM, d_ee)):
            # the drawn codes die as the call returns, before the pools grow,
            # and the shares before the next draw
            shares = _labeled_shares(
                oracle, bare, dist.draw_codes(_stream(seed, stream, j), count), dtype
            )
            for (leaf_id, label), parts in shares.items():
                states[leaf_id].deposit((stream, label), parts)
            del shares

        # each stopping-test point sits at exactly one leaf: floors[1] in all
        mismatches = sum(st.mismatches for st in states.values())
        best = None
        if mismatches <= 0.75 * epsilon * floors[1]:
            stop_reason = "stopping_test"
        elif len(states) - 1 >= max_splits:
            stop_reason = "max_splits"
        else:
            # Only a step that may split reads the pair pools, so only it
            # tops them up: a step that ends the run draws no pair.
            new_floor = pair_schedule(j, delta, epsilon, n)
            d_pairs, pair_floor = new_floor - pair_floor, new_floor
            # dropped once deposited, so it is not alive through the split
            batch = draw_pair_batch(oracle, dist, _stream(seed, _PAIR_STREAM, j), d_pairs, bare)
            for (leaf_id, i), hits in batch.hits.items():
                states[leaf_id].deposit((_PAIR_STREAM, i), [hits])
            del batch
            stop_reason = "no_splittable_leaf"  # read only if no candidate exists
            # every coordinate has drawn exactly the pair floor
            candidates = [
                (len(codes) / pair_floor, leaf_id, i)
                for leaf_id, st in sorted(states.items())
                for (stream, i), codes in st.pools.items()
                if stream == _PAIR_STREAM
            ]
            # max keeps the first of equal estimates: the lowest leaf id, then coordinate
            best = max(candidates, key=lambda c: c[0], default=None)
        usage.append(UsageRow(j, len(states), pair_floor, *floors, oracle.queries,
                              sum(floors) + 2 * pair_floor))
        terminated = stop_reason == "stopping_test"
        est, split_id, coord = best or (None, None, None)
        steps.append(PracticalStep(
            j, len(states), mismatches, floors[1], terminated, split_id, coord, est
        ))
        if best is None:
            break
        bare, lo_id, hi_id = split_leaf(bare, split_id, coord)
        states[lo_id], states[hi_id] = states.pop(split_id).split(coord)

    return PracticalResult(
        tree=label_leaves(bare, {leaf_id: st.label for leaf_id, st in states.items()}),
        bare=bare,
        steps=tuple(steps),
        usage=tuple(usage),
        terminated=terminated,
        stop_reason=stop_reason,
        label_queries=oracle.queries,
        random_draws=usage[-1].random_draws,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
    )
