"""Ground-truth target generators for experiments and property suites."""

from __future__ import annotations

import numpy as np

from .core import DecisionTree, Internal, Leaf, Node, TruthTableOracle

__all__ = [
    "generate_balanced_target",
    "generate_path_target",
    "generate_random_tree",
    "generate_truth_table",
]


def _balanced_subtree(levels: int, available: list[int], rng: np.random.Generator) -> Node:
    if levels == 0:
        return Leaf(int(rng.choice([-1, 1])))
    if levels == 1:
        sign = int(rng.choice([-1, 1]))
        var = int(rng.choice(available))
        return Internal(var, Leaf(sign), Leaf(-sign))
    var = int(rng.choice(available))
    remaining = [i for i in available if i != var]
    return Internal(
        var,
        _balanced_subtree(levels - 1, remaining, rng),
        _balanced_subtree(levels - 1, remaining, rng),
    )


def generate_balanced_target(depth: int, n: int, rng: np.random.Generator) -> DecisionTree:
    """Complete binary tree of the given depth over distinct random
    variables per path.  Sibling leaves always get opposite labels, so no
    split is vacuous and the tree's size is its effective size.
    """
    if depth > n:
        raise ValueError(f"depth {depth} exceeds dimension {n}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")

    return DecisionTree(_balanced_subtree(depth, list(range(n)), rng))


def generate_path_target(n: int, rng: np.random.Generator) -> DecisionTree:
    """Chain of n internal nodes querying x_0, x_1, ... in order.

    Each node hangs a leaf on a random side and continues on the other;
    the deepest node has two leaves.  Leaf labels alternate with depth, so
    every split separates the classes.  Produces n+1 leaves with maximum
    depth n; under the uniform distribution the average depth stays below 2
    however large n is.
    """
    if n < 1:
        raise ValueError("need at least one variable")

    # Built from the deepest node up, which is the order the coin flips are drawn in.
    node: Node | None = None
    for k in reversed(range(n)):
        lo = Leaf(1 if k % 2 == 0 else -1)  # labels alternate with depth k + 1
        hi = Leaf(-lo.label) if node is None else node
        if rng.random() < 0.5:
            lo, hi = hi, lo
        node = Internal(k, lo, hi)
    return DecisionTree(node)


def _random_subtree(
    depth: int, max_depth: int, available: list[int], rng: np.random.Generator
) -> Node:
    stop = depth >= max_depth or not available or (depth > 0 and rng.random() < 0.3)
    if stop:
        return Leaf(int(rng.choice([-1, 1])))
    var = int(rng.choice(available))
    remaining = [i for i in available if i != var]
    return Internal(
        var,
        _random_subtree(depth + 1, max_depth, remaining, rng),
        _random_subtree(depth + 1, max_depth, remaining, rng),
    )


def generate_random_tree(n: int, max_depth: int, rng: np.random.Generator) -> DecisionTree:
    """Random query tree: each node splits on a fresh variable and stops
    early at random; leaf labels are independent coin flips."""
    if not 1 <= max_depth <= n:
        raise ValueError(f"max_depth must lie in [1, {n}], got {max_depth}")

    return DecisionTree(_random_subtree(0, max_depth, list(range(n)), rng))


def generate_truth_table(n: int, rng: np.random.Generator) -> TruthTableOracle:
    """Uniformly random +/-1 labels over all 2^n points."""
    if not 1 <= n <= 20:
        raise ValueError(f"dense tables support n in [1, 20], got {n}")
    return TruthTableOracle(rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << n))
