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

A tree target whose ordered label-differing leaf pairs times n are at
most 2^n labels no point, so a ``CountingOracle`` target sees no query;
its piece table is held until the build returns.  Any other target labels
all 2^n points, once per build, so a ``CountingOracle`` target sees 2^n
queries.  See :mod:`greedytree.exact` for how leaves are scored and split
on either path.
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

    ``max_splits=None`` sets no cap: a tree over n coordinates has at most
    2^n - 1 splits.  Nor is the paper's size bound a cap: the size-bound checks
    exempt runs that end ``terminated=False``, so it could only hide what
    they look for.  An oracle whose n differs from ``dist.n`` is refused
    with a ValueError before any leaf is compiled or point labeled.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if max_splits is not None and max_splits < 0:
        raise ValueError(f"max_splits must be >= 0, got {max_splits}")
    oracle = TreeOracle(target, dist.n) if isinstance(target, DecisionTree) else target

    leaves: dict[int, LeafInfo] = {0: leaf_info(oracle, dist, Restriction())}
    heap = [(-leaves[0].score, 0)]
    cost = leaves[0].leaf_cost
    bare = BareTree(BareLeaf(0))
    steps: list[GreedyStep] = []

    while True:
        completion_error = sum([info.error_mass for info in leaves.values()])
        if completion_error <= epsilon or (max_splits is not None and len(steps) >= max_splits):
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
        for lid, info in zip((lo_id, hi_id), split_children(best, dist)):
            leaves[lid] = info
            heapq.heappush(heap, (-info.score, lid))
        # also the next step's cost_before: the same sum over the same leaves
        cost_before, cost = cost, sum([info.leaf_cost for info in leaves.values()])

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
    labels = {
        lid: 1 if info.summary.positive_mass >= 0.5 else -1 for lid, info in leaves.items()
    }
    return GreedyResult(
        tree=label_leaves(bare, labels),
        bare=bare,
        steps=tuple(steps),
        terminated=completion_error <= epsilon,
        final_error=completion_error,
        epsilon=epsilon,
    )
