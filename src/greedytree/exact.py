"""Exact measure-theoretic quantities, by enumeration or over a tree's leaves.

Everything here conditions on a :class:`Restriction` (the queries fixed on
a root-to-leaf path) and enumerates the remaining free coordinates, weighted
by the product measure.  The central notion is coordinate influence under
re-randomization,

    influence_i(f) = Pr[f(x) != f(x')],   x' = x with x_i redrawn,

which has the closed form 2 p_i (1 - p_i) * Pr[f(..,x_i=0) != f(..,x_i=1)]:
the redrawn bit must actually change (probability 2 p_i (1 - p_i)) and the
change must matter.  The test suite checks this closed form against a direct
enumeration of the defining probability.  The flip-based variant, which
drops the 2 p q factor, is computed alongside it; the two differ materially
away from the uniform distribution and the verification suite records which
inequalities hold for which variant.

An enumeration lists the 2^m assignments of the m free coordinates by
doubling: each pass appends a copy of the codes and weights so far with the
next free coordinate set, so bit t of the index is the t-th free coordinate
in ascending order.  Its labels, reshaped to (-1, 2, 2^t), pair every point
with its partner across that coordinate; the influence reduction and
:func:`split_children` both read them that way.

The reduction spends one compare and one masked gather of weights per
free coordinate, and the coordinates are independent.  Each gathered
weight sum is taken on the draw threads when :mod:`greedytree.core`'s rule
sends an enumeration of that many points there, and inline otherwise; the
calling thread then fills in every coordinate in order from the same
sums, so the results are bit-identical.  A leaf with constant labels
reduces no coordinate: each keeps 0.0, which is what its reduction would
give.

Leaf pairs.  A target given as a decision tree (an oracle whose
``compiled_leaves`` is not None) partitions the cube into subcubes, one per
leaf, so :func:`leaf_info` and :func:`split_children` need no enumeration.
A leaf is consistent with a restriction when their fixed bits agree.  The
positive mass is the summed weight of the consistent +1 leaves.  Two
consistent leaves with different labels meet across x_i exactly when x_i is
the only coordinate both fix to different bits; the points x with
f(x, x_i=0) != f(x, x_i=1) form one subcube per such pair, weighed by the
bias factors of the pair's fixed bits outside i and the restriction (the
factor of x_i is left out, not divided out).  The flip influence of x_i is
the sum of those weights.  No point is labeled, so a ``CountingOracle``
sees no query.

Each :func:`leaf_info` call on this path builds one piece table
(:class:`Pieces`) from the leaves consistent with its restriction: a row
per +1 leaf, then a row per meeting pair, each holding the bits the piece
needs at 0 and at 1, its coordinate, and its bias factor on every
coordinate (1.0 where the piece leaves it free).  A node's summary gathers
its rows, sets the restriction's columns to 1.0 and multiplies along each
row.  A split does that once for both children: it gathers the parent's
rows, sets the child restriction's columns to 1.0, which the two children
share, and takes one product.  Child b then keeps the rows that need no
1 - b at the split coordinate, so a pair meeting there leaves both, and
reads their weights from that product.  This is exact: numpy multiplies
along a row in order, so a row's product does not depend on which
gathered block holds it.  The table's factors take pieces x n x 8 bytes
and are kept, shared by every node, for one build; building them holds
one more byte per piece and coordinate at its peak.  A gather takes the
rows in blocks of at most ``_GATHER_BYTES``, so it holds no more than that.

The path is chosen once per build, from the target: leaf pairs when its
ordered label-differing leaf pairs times n is at most 2^n, the size of the
root enumeration, and enumeration otherwise, so no leaf-pair array has more
entries than the root enumeration.  Table targets always enumerate.
:func:`subfunction_summary`, :func:`positive_mass`, :func:`cost`,
:func:`f_completion` and :func:`tree_error` always enumerate: they are the
reference the verification suite and the tests compare against.

The cap is this module's: on both paths a restriction with more than
``MAX_FREE_COORDS`` free coordinates is refused with an
:class:`EnumerationLimitError` before a point is labeled or an enumeration
allocated, and no caller sets another cap.  At the cap one
:func:`subfunction_summary` call labels 2^24 points (a depth-6 balanced
target), which took about 1.2-1.5 s, against 1.6-1.7 s on one thread, and
390 MB of peak memory on a 2-vCPU machine (numpy 2.4).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core
from .core import (
    BareTree,
    CompiledLeaves,
    DecisionTree,
    ProductDistribution,
    Restriction,
    TargetOracle,
    label_leaves,
    leaf_paths,
    route_codes,
    tree_variables,
)

__all__ = [
    "MAX_FREE_COORDS",
    "EnumerationLimitError",
    "LeafInfo",
    "Pieces",
    "SubfunctionView",
    "SubfunctionSummary",
    "cost",
    "f_completion",
    "leaf_info",
    "positive_mass",
    "split_children",
    "subfunction_summary",
    "tree_error",
]

MAX_FREE_COORDS = 24
_GATHER_BYTES = 1 << 21  # one block of gathered piece factors: 4096 rows at n = 64


class EnumerationLimitError(RuntimeError):
    """Exact evaluation would enumerate more free coordinates than allowed."""


@dataclass(frozen=True)
class SubfunctionView:
    """The target restricted to the region of a restriction.

    Probabilities are conditional on the restriction; the free coordinates
    are everything the restriction leaves open.
    """

    oracle: TargetOracle
    restriction: Restriction = Restriction()

    def __post_init__(self):
        for i, _ in self.restriction.items():
            if i >= self.oracle.n:
                raise ValueError(f"restricted coordinate {i} out of range for n={self.oracle.n}")

    @property
    def n(self) -> int:
        return self.oracle.n

    def free_coords(self) -> list[int]:
        fixed = self.restriction.coordinates()
        return [i for i in range(self.n) if i not in fixed]


class Pieces(NamedTuple):
    """A build's piece table and the rows of it one node keeps (see the
    module docstring).  Row k is a +1 leaf (``coord`` -1; these rows come
    first) or a label-differing leaf pair meeting across x_coord."""

    req0: np.ndarray  # uint64: the bits the piece needs at 0, a pair's x_coord too
    req1: np.ndarray  # uint64: the bits the piece needs at 1, a pair's x_coord too
    coord: np.ndarray  # int64
    factors: np.ndarray  # float64, pieces x n: p or 1 - p on the piece's bits, else 1.0
    plus: int  # how many +1 rows the table has
    two_pq: np.ndarray  # float64, n: 2 p (1 - p), the re-randomization factor
    rows: np.ndarray  # int64, ascending: this node's rows


def _check_budget(m: int) -> None:
    if m > MAX_FREE_COORDS:
        raise EnumerationLimitError(
            f"{m} free coordinates exceeds the enumeration cap of {MAX_FREE_COORDS}"
        )


def _weights(dist: ProductDistribution, free: list[int]) -> np.ndarray:
    """Conditional weight of every assignment of ``free``, in enumeration order."""
    weights = np.ones(1)
    for i in free:
        p = dist.biases[i]
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    return weights


def _check_dimensions(oracle: TargetOracle, dist: ProductDistribution) -> None:
    if oracle.n != dist.n:
        raise ValueError(f"oracle has n={oracle.n}, distribution has n={dist.n}")


def _codes(view: SubfunctionView, dist: ProductDistribution) -> np.ndarray:
    """Code of every assignment of the free coordinates, in enumeration order:
    bit t of the index is free coordinate ``view.free_coords()[t]``."""
    _check_dimensions(view.oracle, dist)
    free = view.free_coords()
    _check_budget(len(free))
    codes = np.full(1, view.restriction.base_code(), dtype=np.uint64)
    for i in free:
        codes = np.concatenate([codes, codes | np.uint64(1 << i)])
    return codes


@dataclass(frozen=True)
class SubfunctionSummary:
    """Positive mass and every coordinate's influence, re-randomization and
    flip forms (exactly 0 on restricted coordinates), of one subfunction.

    An enumeration also keeps its ±1 values in enumeration order as
    ``labels``; a leaf-pair summary keeps its node's rows of the piece
    table as ``pieces``.  The other field is None.
    """

    positive_mass: float
    influences: np.ndarray
    flip_influences: np.ndarray
    labels: np.ndarray | None = field(repr=False, compare=False)
    pieces: Pieces | None = field(default=None, repr=False, compare=False)

    @property
    def variance(self) -> float:
        return 4.0 * self.positive_mass * (1.0 - self.positive_mass)

    @property
    def error(self) -> float:
        return min(self.positive_mass, 1.0 - self.positive_mass)

    @property
    def total_influence(self) -> float:
        return float(self.influences.sum())


def _summarize(
    dist: ProductDistribution,
    free: list[int],
    labels: np.ndarray,
    weights: np.ndarray,
) -> SubfunctionSummary:
    """The influence reduction over one enumeration's labels and weights.

    Every free coordinate is reduced, and none when the labels are
    constant: then each keeps 0.0, the sum of an empty gather.  Large
    enumerations gather on the draw threads (see the module docstring).
    """
    mu_plus = float(np.sum(weights[labels > 0]))
    infl = np.zeros(dist.n)
    flip = np.zeros(dist.n)
    if labels.min() == labels.max():
        return SubfunctionSummary(mu_plus, infl, flip, labels)

    def gathered(t: int) -> float:
        # numpy only: no oracle, nothing a tracer wraps
        lab = labels.reshape(-1, 2, 1 << t)
        wgt = weights.reshape(-1, 2, 1 << t)
        return float(np.sum(wgt[:, 0, :][lab[:, 0, :] != lab[:, 1, :]]))

    for i, total in zip(free, core._draw_map(len(labels), gathered, range(len(free)))):
        p = dist.biases[i]
        # weight of the other coordinates = bit-0 slice with its (1-p) factor removed
        flip[i] = total / (1.0 - p)
        infl[i] = 2.0 * p * (1.0 - p) * flip[i]
    return SubfunctionSummary(mu_plus, infl, flip, labels)


def subfunction_summary(view: SubfunctionView, dist: ProductDistribution) -> SubfunctionSummary:
    """Positive mass plus all coordinate influences from one enumeration.

    Restricted coordinates are fixed, so their influence is exactly 0 and no
    work is spent on them.
    """
    # The codes are dropped before the weights are built, which lowers peak memory.
    labels = view.oracle.label_codes(_codes(view, dist))
    free = view.free_coords()
    return _summarize(dist, free, labels, _weights(dist, free))


def _pairs_fit(leaves: CompiledLeaves | None, n: int) -> bool:
    """Whether leaf pairs serve a target with these compiled leaves: its
    ordered label-differing leaf pairs times n are at most 2^n."""
    if leaves is None:
        return False
    plus = int(np.count_nonzero(leaves.label > 0))
    return 2 * plus * (len(leaves.label) - plus) * n <= 1 << n


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bit i of each word as column i of a (words x n) bool matrix, unpacked
    from the words' bytes, so no uint64 (words x n) temporary is made."""
    lanes = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(lanes, axis=1, count=n, bitorder="little").view(bool)


def _piece_table(
    dist: ProductDistribution, restriction: Restriction, leaves: CompiledLeaves
) -> Pieces:
    """The piece table of the target's leaves consistent with the
    restriction (see the module docstring), every row kept."""
    fixed_mask = np.uint64(sum(1 << i for i in restriction.coordinates()))
    keep = ((leaves.value ^ np.uint64(restriction.base_code())) & leaves.mask & fixed_mask) == 0
    mask, value, label = (a[keep] for a in leaves)
    plus = label > 0
    pm, pv, nm, nv = mask[plus], value[plus], mask[~plus], value[~plus]
    # Two leaves of a tree are disjoint, so every +1/-1 pair has a
    # conflicting bit; it meets across x_i when that bit is x_i alone.
    conflict = (pv[:, None] ^ nv) & pm[:, None] & nm
    a, b = np.nonzero((conflict & (conflict - np.uint64(1))) == 0)
    bit = conflict[a, b]
    # one piece per +1 leaf, then one per meeting pair, which needs x_i at both bits
    zero = mask & ~value
    req0 = np.concatenate([zero[plus], zero[plus][a] | zero[~plus][b]])
    req1 = np.concatenate([pv, pv[a] | nv[b]])
    p = np.asarray(dist.biases)
    # built in place: the peak holds one float matrix and one bool matrix
    factors = np.where(_bits(req1, dist.n), p, 1.0 - p)
    factors[_bits(~(req0 ^ req1), dist.n)] = 1.0  # free, and a pair's x_i
    coords = np.frexp(bit.astype(np.float64))[1] - 1  # exact: bit is a power of two
    coords = np.concatenate([np.full(len(pm), -1), coords])
    return Pieces(req0, req1, coords, factors, len(pm), 2.0 * p * (1.0 - p), np.arange(len(req1)))


def _row_weights(pieces: Pieces, restriction: Restriction) -> np.ndarray:
    """The weight of each of the node's rows in the restriction's region:
    the product along its factors, the restriction's columns set to 1.0."""
    step = max(1, _GATHER_BYTES // (8 * len(pieces.two_pq)))  # a row is n float64s
    weights = np.empty(len(pieces.rows))
    for start in range(0, len(pieces.rows), step):
        factors = pieces.factors[pieces.rows[start : start + step]]
        factors[:, [i for i, _ in restriction.items()]] = 1.0
        factors.prod(axis=1, out=weights[start : start + step])
        del factors  # before the next block is gathered
    return weights


def _tally(pieces: Pieces, weights: np.ndarray) -> SubfunctionSummary:
    """The summary of a node from the weights of its rows."""
    plus = pieces.rows.searchsorted(pieces.plus)  # the +1 rows come first
    flip = np.bincount(
        pieces.coord[pieces.rows[plus:]], weights=weights[plus:], minlength=len(pieces.two_pq)
    )
    return SubfunctionSummary(float(weights[:plus].sum()), pieces.two_pq * flip, flip, None, pieces)


def positive_mass(view: SubfunctionView, dist: ProductDistribution) -> float:
    """Conditional probability that the subfunction equals +1."""
    labels = view.oracle.label_codes(_codes(view, dist))
    return float(np.sum(_weights(dist, view.free_coords())[labels > 0]))


# ---------------------------------------------------------------------------
# Bare-tree quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafInfo:
    """What the greedy step needs about one leaf of a bare tree.

    ``summary`` is the leaf's :class:`SubfunctionSummary`: its positive
    mass, every coordinate's influence, and the ``labels`` or ``pieces``
    from which a split derives both children without labeling again.  The
    score of any coordinate i is ``reach * summary.influences[i]``.  The
    live leaves of a bare tree partition the cube, so on enumeration they
    hold 2^n labels together: 2^n bytes with this package's oracles, which
    label in int8.  On leaf pairs they share one piece table and each holds
    its own row indices.
    """

    restriction: Restriction
    reach: float
    error_mass: float  # reach * min(mu, 1 - mu), clamped at 0, mu the positive mass
    leaf_cost: float  # reach * total influence
    score: float  # reach * largest influence
    coord: int  # coordinate of the largest influence; -1 with none free
    summary: SubfunctionSummary = field(repr=False, compare=False)


def _leaf(
    dist: ProductDistribution,
    restriction: Restriction,
    free: list[int] | np.ndarray,
    summary: SubfunctionSummary,
) -> LeafInfo:
    """The one place a leaf's reach, score, coordinate, error mass and cost
    are computed; ``free`` lists the free coordinates in ascending order."""
    reach = dist.reach_probability(restriction)
    if len(free):
        best = int(free[summary.influences[free].argmax()])  # first maximum: lowest tied
        score = reach * float(summary.influences[best])
    else:
        best, score = -1, 0.0
    mu = summary.positive_mass
    return LeafInfo(
        restriction=restriction,
        reach=reach,
        # mu of an all-+1 region can round just above 1
        error_mass=reach * max(0.0, min(mu, 1.0 - mu)),
        leaf_cost=reach * summary.total_influence,
        score=score,
        coord=best,
        summary=summary,
    )


def leaf_info(
    oracle: TargetOracle, dist: ProductDistribution, restriction: Restriction
) -> LeafInfo:
    """Reach, positive mass, cost and score of the leaf at ``restriction``,
    over leaf pairs or by enumeration as the target decides (see the module
    docstring).  Ties in influence go to the lowest coordinate; with no
    free coordinate the score is 0 at coordinate -1."""
    _check_dimensions(oracle, dist)
    view = SubfunctionView(oracle, restriction)
    free = view.free_coords()
    _check_budget(len(free))
    leaves = oracle.compiled_leaves()
    if _pairs_fit(leaves, oracle.n):
        pieces = _piece_table(dist, restriction, leaves)
        summary = _tally(pieces, _row_weights(pieces, restriction))
    else:
        summary = subfunction_summary(view, dist)
    return _leaf(dist, restriction, free, summary)


def split_children(info: LeafInfo, dist: ProductDistribution) -> tuple[LeafInfo, LeafInfo]:
    """The leaves that splitting ``info`` on ``info.coord`` creates, x = 0
    first, equal to ``leaf_info`` of each child restriction.  To split on
    another free coordinate c, pass ``dataclasses.replace(info, coord=c)``:
    the children's costs then sum to ``info.leaf_cost`` less
    ``info.reach * info.summary.influences[c]``.

    On leaf pairs one product over the parent's rows of the piece table,
    with the child restriction's columns set to 1.0, weighs both children
    (see the module docstring); child b keeps the rows whose piece needs no
    1 - b at the split coordinate.  On enumeration the labels come from the
    parent's: with the split coordinate at position t of the free
    coordinates, child b takes the index slice whose bit t is b, which is
    already in the child's enumeration order, and every free coordinate is
    reduced again.  Either way no point is labeled again, and the children
    share one list of free coordinates.  A leaf with no free coordinate
    (``coord`` -1), a coordinate outside ``range(dist.n)`` and one the leaf
    already fixes are refused with a ValueError.
    """
    if info.coord < 0:
        raise ValueError(f"the leaf at {info.restriction} has no free coordinate to split")
    if info.coord >= dist.n:
        raise ValueError(f"coordinate {info.coord} out of range for n={dist.n}")
    fixed = info.restriction.coordinates() | {info.coord}
    child_free = [i for i in range(dist.n) if i not in fixed]
    free = np.array(child_free, dtype=np.intp)
    children = [info.restriction.extend(info.coord, b) for b in (0, 1)]
    if info.summary.pieces is not None:
        pieces, bit = info.summary.pieces, np.uint64(1 << info.coord)
        # both children reset the same columns, and a row's product is the
        # same in any block that holds it: one product serves both
        weights = _row_weights(pieces, children[0])
        kept = [(req[pieces.rows] & bit) == 0 for req in (pieces.req1, pieces.req0)]
        return tuple(
            _leaf(dist, r, free, _tally(pieces._replace(rows=pieces.rows[k]), weights[k]))
            for r, k in zip(children, kept)
        )
    t = bisect.bisect(child_free, info.coord)  # its position among the parent's free
    weights = _weights(dist, child_free)
    halves = info.summary.labels.reshape(-1, 2, 1 << t)
    return tuple(
        _leaf(dist, r, free, _summarize(dist, child_free, halves[:, b, :].flatten(), weights))
        for b, r in enumerate(children)
    )


def cost(bare: BareTree, oracle: TargetOracle, dist: ProductDistribution) -> float:
    """Sum over leaves of reach probability times total influence, by
    enumeration.

    This potential decreases by exactly the split leaf's score at every
    greedy step, and upper-bounds the completion's error.
    """
    return sum(
        dist.reach_probability(restriction)
        * subfunction_summary(SubfunctionView(oracle, restriction), dist).total_influence
        for restriction, _ in leaf_paths(bare)
    )


def f_completion(bare: BareTree, oracle: TargetOracle, dist: ProductDistribution) -> DecisionTree:
    """Label every leaf with the target's conditional majority; exact ties
    resolve to +1.

    Among all labelings of this bare tree, the result minimizes the exact
    disagreement probability with the target.
    """
    labels: dict[int, int] = {}
    for restriction, leaf in leaf_paths(bare):
        mu = positive_mass(SubfunctionView(oracle, restriction), dist)
        labels[leaf.id] = 1 if mu >= 0.5 else -1
    return label_leaves(bare, labels)


def tree_error(tree: DecisionTree, oracle: TargetOracle, dist: ProductDistribution) -> float:
    """Exact disagreement probability Pr[tree(x) != f(x)] by enumeration.
    A tree that queries a coordinate at or above ``oracle.n`` is refused
    with a ValueError."""
    vs = tree_variables(tree)
    if vs and max(vs) >= oracle.n:
        raise ValueError(f"tree queries x_{max(vs)} but n={oracle.n}")
    view = SubfunctionView(oracle)
    codes = _codes(view, dist)
    disagree = route_codes(tree, codes) != oracle.label_codes(codes)
    return float(np.sum(_weights(dist, view.free_coords())[disagree]))
