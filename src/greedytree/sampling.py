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

Every pool is a bare uint64 code array, partitioned across the current
leaves: each sample lives at the leaf its first element reaches.  The
labeling and stopping-test points are kept in one array per label, so every
count the builder reads is an array length.  When a leaf splits, each of its
arrays is partitioned by the split bit; one walk from the root hands each
leaf its share of a fresh batch, so per-leaf counts follow the correct
conditional law while the pool totals meet the floors exactly.

All coordinates share one draw of x per step.  The step draws ``d_pairs``
points x, then ``d_pairs`` points y of the product of the marginals of the
coordinates, and pairs x with x' = x except that bit i is y's bit for i, for
every coordinate i.  So coordinate i's pool gets ``d_pairs`` new pairs, each
an x ~ mu with bit i redrawn, as if it had been drawn alone.

A pair contributes to a leaf's score estimate only when both endpoints
reach the leaf and the labels disagree.  If the redrawn coordinate is not
queried on the leaf's path, both endpoints reach it together; if it is
queried, the endpoints either coincide (labels equal) or separate, so the
contribution is zero either way and such pairs are skipped.  The estimate
divides by the full pool size, which makes it an unbiased estimator of the
true score -- a property the test suite checks by Monte Carlo against the
exact engine.  :func:`pair_hits` is that estimator; the builder and the
unbiasedness check in :mod:`greedytree.verify` both run it.

Sharing x is sound.  For each leaf and coordinate the estimate is still the
mean of ``pair_floor`` iid indicators, each of the law a pair drawn for that
coordinate alone has, so each one's Hoeffding bound holds as before.  The
estimates of different coordinates now depend on each other, but the union
bound over coordinates, leaves and steps needs no independence between the
events it adds up.

Only the pairs whose redrawn bit differs from x_i are labeled.  The others
have x' = x, so their labels agree and they never count at any leaf; this
is the 2 p_i (1 - p_i) factor in the closed form of the influence in
:mod:`greedytree.exact`.  They are still drawn and still counted in the pool
total, so every estimate is the same as if all pairs were labeled.  Each x
with at least one flipped coordinate is labeled once, and each flipped
x ^ (1 << i) once.

So the builder keeps, per leaf and coordinate off its path, only the x
codes of the pairs whose labels disagree, and a leaf's hit count is the
length of that array.  The redrawn endpoint is not needed: off the leaf's
path it routes with x.

Termination: label every leaf by the majority of its labeling points (ties
go to +1), count the leaf's stopping-pool points of the other label as its
mismatches, and stop once the total mismatch fraction is at most 3/4 of the
working accuracy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

import numpy as np

from .core import (
    BareLeaf,
    BareTree,
    DecisionTree,
    ProductDistribution,
    TargetOracle,
    label_leaves,
    route_codes,  # unused here; perfbench/layers.py looks it up on this module
    route_groups,
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
    "pair_hits",
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


def _bit(codes: np.ndarray, coord: int) -> np.ndarray:
    return (codes & np.uint64(1 << coord)) != 0


@dataclass(frozen=True)
class PairBatch:
    """The labeled pairs of one shared draw of ``drawn`` points x.

    Each x is paired, for each coordinate i the batch was drawn for, with
    x' equal to x except that bit i is redrawn.  Only the pairs whose
    redrawn bit came out different from x's are labeled, so each x' is x
    with bit i flipped.  ``x_labels`` and ``alt_labels`` hold the labels of
    x and x', one entry per labeled pair, coordinate by coordinate in the
    order given, and ``len`` counts the labeled pairs.  ``hit_codes``
    and ``hit_coords`` hold the x and the coordinate of each pair whose
    labels disagree.  The oracle labeled ``x_queries`` points x, each x
    that flipped for some coordinate once, and one x' per labeled pair.
    Estimates divide by ``drawn``.
    """

    x_labels: np.ndarray
    alt_labels: np.ndarray
    hit_codes: np.ndarray
    hit_coords: np.ndarray
    x_queries: int
    drawn: int

    def __len__(self) -> int:
        return len(self.x_labels)

    @property
    def label_queries(self) -> int:
        return self.x_queries + len(self)


def draw_pair_batch(
    oracle: TargetOracle,
    dist: ProductDistribution,
    coords: Iterable[int],
    rng: np.random.Generator,
    count: int,
) -> PairBatch:
    """Draw ``count`` points x, pair each with a redraw of every coordinate
    in ``coords``, and label the pairs that flipped.

    The redrawn bits are one more product draw, y of the marginals of
    ``coords`` in their order: the bit of y for coordinate i equals x_i
    with probability 1 - 2 p_i (1 - p_i), and then x' = x and the pair
    cannot disagree.  So the stream is ``count`` codes of ``dist``, then
    ``count`` uniforms per coordinate of ``coords``; for one coordinate
    this is the stream of drawing that coordinate's pairs alone.
    """
    coords = tuple(coords)
    if not coords or len(set(coords)) < len(coords) or not all(0 <= i < dist.n for i in coords):
        raise ValueError(f"need distinct coordinates in range for n={dist.n}, got {coords}")
    x = dist.draw_codes(rng, count)
    y = ProductDistribution([dist.biases[i] for i in coords]).draw_codes(rng, count)
    flips = [_bit(y, k) != _bit(x, i) for k, i in enumerate(coords)]
    # Index arrays: on numpy 2.4 a boolean-mask gather of uint64 codes took
    # about 2.5x as long as flatnonzero followed by the integer gather.
    some = np.flatnonzero(np.logical_or.reduce(flips))
    labels = np.zeros(count, dtype=np.int8)
    labels[some] = oracle.label_codes(x[some])
    x_labels, alt_labels, hit_codes, hit_coords = [], [], [], []
    for i, flip in zip(coords, flips):
        idx = np.flatnonzero(flip)
        flipped = x[idx]
        x_labels.append(labels[idx])
        alt_labels.append(oracle.label_codes(flipped ^ np.uint64(1 << i)))
        hits = flipped[np.flatnonzero(x_labels[-1] != alt_labels[-1])]
        hit_codes.append(hits)
        hit_coords.append(np.full(len(hits), i, dtype=np.uint8))
    return PairBatch(
        *(np.concatenate(parts) for parts in (x_labels, alt_labels, hit_codes, hit_coords)),
        len(some),
        count,
    )


def pair_hits(
    batch: PairBatch, bare: BareTree, paths: Mapping[int, Container[int]]
) -> dict[tuple[int, int], np.ndarray]:
    """The x codes of the batch's disagreeing pairs, keyed by (leaf, coordinate).

    A pair counts for a leaf when both endpoints reach it and their labels
    disagree.  Off the leaf's path (``paths[leaf_id]`` holds the coordinates
    it queries) the flipped coordinate is not queried, so x' reaches the
    leaf iff x does: one walk routes the x alone, and each leaf splits its
    hits by coordinate.  On the path x and x' part at the query, so a leaf
    gets no hits for the coordinates it queries.  Its score estimate for a
    coordinate is its hit count over the number of pairs drawn, not labeled.
    """
    hits = {}
    for leaf, idx in route_groups(bare, batch.hit_codes):
        coords = batch.hit_coords[idx]
        for i in np.flatnonzero(np.bincount(coords)).tolist():
            if i not in paths[leaf.id]:
                hits[leaf.id, i] = batch.hit_codes[idx[coords == i]]
    return hits


# ---------------------------------------------------------------------------
# Builder state
# ---------------------------------------------------------------------------


# Keys of the derived random streams, which also key each leaf's pools.
_LL_STREAM, _EE_STREAM, _PAIR_STREAM = 1, 2, 3


@dataclass
class _LeafState:
    """One leaf's share of the pools, each a bare uint64 code array.

    ``pools[_LL_STREAM, label]`` and ``pools[_EE_STREAM, label]`` hold the
    leaf's labeling and stopping-test points of each label, +1 and -1.
    ``pools[_PAIR_STREAM, i]`` holds, for each coordinate i off ``path``,
    the x codes of the pairs that disagree at the leaf.  Every count is an
    array length: the label is the labeling pool's majority (ties to +1),
    the mismatches are the stopping-test points of the other label, and the
    hit count for i is the length of the pair pool of i.
    """

    path: frozenset[int]
    pools: dict[tuple[int, int], np.ndarray]

    @property
    def label(self) -> int:
        return 1 if len(self.pools[_LL_STREAM, 1]) >= len(self.pools[_LL_STREAM, -1]) else -1

    @property
    def mismatches(self) -> int:
        return len(self.pools[_EE_STREAM, -self.label])

    @property
    def error_samples(self) -> int:
        return len(self.pools[_EE_STREAM, 1]) + len(self.pools[_EE_STREAM, -1])

    def deposit(self, key: tuple[int, int], codes: np.ndarray) -> None:
        self.pools[key] = np.concatenate([self.pools[key], codes])

    def split(self, coord: int) -> tuple["_LeafState", "_LeafState"]:
        """The children with x_coord = 0, then 1.  Every pool is partitioned
        by the bit; the pair pool of ``coord`` is dropped, as the children
        query it."""
        path = self.path | {coord}
        lo, hi = {}, {}
        for key, codes in self.pools.items():
            if key != (_PAIR_STREAM, coord):
                side = _bit(codes, coord)
                lo[key], hi[key] = codes[~side], codes[side]
        return _LeafState(path, lo), _LeafState(path, hi)


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

    ``random_draws`` counts each point drawn from a product distribution
    once: a step adds its labeling and stopping-test points and, for the
    pairs, the shared points x and the points y of their redrawn bits.
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
    are the totals of the last :class:`UsageRow`."""

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
    states = {0: _LeafState(frozenset(), dict.fromkeys(keys, np.empty(0, dtype=np.uint64)))}
    next_id = 1
    floors = (0, 0, 0)  # per-coordinate pair, labeling and stopping-test floors
    label_queries = 0
    random_draws = 0
    steps: list[PracticalStep] = []
    usage: list[UsageRow] = []

    for j in itertools.count(1):
        # Top every pool up to its step-j floor; a zero increment draws nothing.
        new_floors = (
            pair_schedule(j, delta, epsilon, n),
            labeling_schedule(j, epsilon, delta),
            error_schedule(j, epsilon, delta),
        )
        d_pairs, d_ll, d_ee = (new - old for new, old in zip(new_floors, floors))
        floors = new_floors
        for stream, count in ((_LL_STREAM, d_ll), (_EE_STREAM, d_ee)):
            codes = dist.draw_codes(_stream(seed, stream, j), count)
            positive = oracle.label_codes(codes) > 0
            label_queries += count
            random_draws += count
            for leaf, idx in route_groups(bare, codes):
                side = positive[idx]
                states[leaf.id].deposit((stream, 1), codes[idx[side]])
                states[leaf.id].deposit((stream, -1), codes[idx[~side]])
        paths = {leaf_id: st.path for leaf_id, st in states.items()}
        batch = draw_pair_batch(oracle, dist, range(n), _stream(seed, _PAIR_STREAM, j), d_pairs)
        label_queries += batch.label_queries
        random_draws += 2 * d_pairs  # the points x and their redrawn bits y
        for (leaf_id, i), hits in pair_hits(batch, bare, paths).items():
            states[leaf_id].deposit((_PAIR_STREAM, i), hits)
        usage.append(UsageRow(j, len(states), *floors, label_queries, random_draws))

        mismatches = sum(st.mismatches for st in states.values())
        error_samples = sum(st.error_samples for st in states.values())
        best = None
        if mismatches <= 0.75 * epsilon * error_samples:
            stop_reason = "stopping_test"
        elif len(states) - 1 >= max_splits:
            stop_reason = "max_splits"
        else:
            stop_reason = "no_splittable_leaf"  # read only if no candidate exists
            # every coordinate has drawn exactly the pair floor, floors[0]
            candidates = [
                (len(st.pools[_PAIR_STREAM, i]) / floors[0], leaf_id, i)
                for leaf_id, st in sorted(states.items())
                for i in range(n)
                if i not in st.path
            ]
            # max keeps the first of equal estimates: the lowest leaf id, then coordinate
            best = max(candidates, key=lambda c: c[0], default=None)
        terminated = stop_reason == "stopping_test"
        est, split_id, coord = best or (None, None, None)
        steps.append(PracticalStep(
            j, len(states), mismatches, error_samples, terminated, split_id, coord, est
        ))
        if best is None:
            break
        bare = split_leaf(bare, split_id, coord, next_id, next_id + 1)
        states[next_id], states[next_id + 1] = states.pop(split_id).split(coord)
        next_id += 2

    return PracticalResult(
        tree=label_leaves(bare, {leaf_id: st.label for leaf_id, st in states.items()}),
        bare=bare,
        steps=tuple(steps),
        usage=tuple(usage),
        terminated=terminated,
        stop_reason=stop_reason,
        label_queries=label_queries,
        random_draws=random_draws,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
    )
