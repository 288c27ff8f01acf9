"""Top-down greedy induction with exact influences.

Grows a bare tree from a single leaf.  Each iteration scores every leaf
(reach probability times its most influential coordinate), splits the
highest-scoring leaf on that coordinate, and stops as soon as the
majority-labeled completion of the current bare tree disagrees with the
target with probability at most epsilon.  Ties in score break toward the
lowest leaf identifier (the live leaves sit in a heap keyed by minus the
score, then the identifier), then the lowest coordinate index, so runs
are reproducible.

The returned trace carries, per step, the chosen leaf and coordinate, the
score, the potential ("cost") before and after the split, and the exact
completion error before the split; the verification suite replays these
against independently recomputed values.

Leaves are scored on one of two paths, chosen once per build from the
target (see :mod:`greedytree.exact`).  A tree target whose ordered
label-differing leaf pairs times n are at most 2^n is scored over pairs of
its leaves: no point is labeled, so a ``CountingOracle`` target sees no
query.  The root builds the build's one piece table (pieces x n x 8 bytes
of bias factors, kept until the build returns).  A split takes one product
over the parent's rows, and each child keeps the rows that one bit test at
the split coordinate admits, with their weights from that product, so no
child rebuilds a conflict matrix or multiplies rows of its own.  Any other
target is labeled once per build: the root's enumeration labels all 2^n
points, and each split derives its two children from the parent's labels
(:func:`greedytree.exact.split_children`), so a ``CountingOracle`` target
sees exactly 2^n queries.  There the live leaves hold only their labels
(2^n in all), not codes or weights, and large leaves reduce on the draw
threads too.  On both paths the final tree takes its labels from the
positive masses already held.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import (
    BareLeaf,
    BareTree,
    DecisionTree,
    ProductDistribution,
    Restriction,
    TargetOracle,
    TreeOracle,
    label_leaves,
    split_leaf,
)
from .exact import LeafInfo, leaf_info, split_children

# Unused here; perfbench/layers.py looks both names up on this module.
from .exact import f_completion, subfunction_summary  # noqa: F401

__all__ = [
    "GreedyStep",
    "GreedyResult",
    "build_topdown_exact",
    "size_bound_log",
]


@dataclass(frozen=True)
class GreedyStep:
    """One split: the tree had ``leaf_count`` leaves when it was chosen."""

    step: int
    leaf_count: int
    leaf_id: int
    coord: int
    score: float
    cost_before: float
    cost_after: float
    completion_error: float


@dataclass(frozen=True)
class GreedyResult:
    tree: DecisionTree
    bare: BareTree
    steps: tuple[GreedyStep, ...]
    terminated: bool
    final_error: float
    epsilon: float

    @property
    def splits(self) -> int:
        return len(self.steps)


def size_bound_log(epsilon: float, depth: int, avg_depth: float) -> float:
    """Natural log of the guaranteed size bound for the exact greedy builder.

    The bound is max((e * avg/(eps * depth))^(avg*depth), e^(avg*depth));
    it is astronomically loose at small scale, so comparisons are done in
    log space.  A constant target (depth 0) is returned as log(1).
    """
    if depth == 0:
        return 0.0
    dd = avg_depth * depth
    return max(dd * (1.0 + math.log(avg_depth) - math.log(epsilon) - math.log(depth)), dd)


def build_topdown_exact(
    target: DecisionTree | TargetOracle,
    dist: ProductDistribution,
    epsilon: float,
    max_splits: int | None = None,
) -> GreedyResult:
    """Run the greedy heuristic with exact influences until the completion
    is an epsilon-approximation (or ``max_splits`` is exhausted, in which
    case the partial result is flagged ``terminated=False``).

    ``max_splits`` defaults to 2^min(n, 62), the structural cap both
    builders use.  The paper's size bound is no cap: the size-bound checks
    exempt runs that end ``terminated=False``, so it could only hide what
    they look for.  An oracle whose n differs from ``dist.n`` is refused
    with a ValueError before any leaf is compiled or point labeled.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if max_splits is not None and max_splits < 0:
        raise ValueError(f"max_splits must be >= 0, got {max_splits}")
    oracle = TreeOracle(target, dist.n) if isinstance(target, DecisionTree) else target
    if max_splits is None:
        max_splits = 1 << min(dist.n, 62)

    leaves: dict[int, LeafInfo] = {0: leaf_info(oracle, dist, Restriction())}
    # kept in the insertion and pop order of ``leaves``, so each sum adds
    # the same floats in the same order
    error_mass, leaf_cost = {0: leaves[0].error_mass}, {0: leaves[0].leaf_cost}
    heap = [(-leaves[0].score, 0)]
    cost = sum(leaf_cost.values())
    bare = BareTree(BareLeaf(0))
    steps: list[GreedyStep] = []

    while True:
        completion_error = sum(error_mass.values())
        if completion_error <= epsilon:
            terminated = True
            break
        if len(steps) >= max_splits:
            terminated = False
            break

        best_id = heapq.heappop(heap)[1]  # the highest score, then the lowest id
        best = leaves.pop(best_id)
        # error <= cost and all-zero scores force cost = 0, so the guard
        # above must already have fired; a split with score 0 is a bug.
        if best.score <= 0.0:
            raise AssertionError(
                f"no positive-score leaf but completion error {completion_error} > {epsilon}"
            )

        bare, lo_id, hi_id = split_leaf(bare, best_id, best.coord)
        del error_mass[best_id], leaf_cost[best_id]
        for lid, info in zip((lo_id, hi_id), split_children(best, dist)):
            leaves[lid], error_mass[lid], leaf_cost[lid] = info, info.error_mass, info.leaf_cost
            heapq.heappush(heap, (-info.score, lid))
        # also the next step's cost_before: the same sum over the same dict
        cost_before, cost = cost, sum(leaf_cost.values())

        steps.append(
            GreedyStep(
                step=len(steps) + 1,
                leaf_count=len(leaves) - 1,
                leaf_id=best_id,
                coord=best.coord,
                score=best.score,
                cost_before=cost_before,
                cost_after=cost,
                completion_error=completion_error,
            )
        )

    # f_completion's labels, from the positive masses already held: ties go to +1
    labels = {lid: 1 if info.mu_plus >= 0.5 else -1 for lid, info in leaves.items()}
    return GreedyResult(
        tree=label_leaves(bare, labels),
        bare=bare,
        steps=tuple(steps),
        terminated=terminated,
        final_error=completion_error,
        epsilon=epsilon,
    )
