"""Greedy top-down decision-tree induction for Boolean targets on product spaces.

Two builders follow the same greedy rule in separate loops:
:func:`build_topdown_exact` scores leaves with exactly computed coordinate
influences, while :func:`build_topdown_practical` is fully sample-driven
and parameter-free.
The :mod:`greedytree.exact` module provides the exact measure engine, which
scores tree targets over their leaf pairs and enumerates the rest,
:mod:`greedytree.verify` the brute-force property checkers, and
:mod:`greedytree.cli` the experiment harness (also ``python -m greedytree``).
"""

from .core import (
    BareLeaf,
    BareTree,
    DecisionTree,
    Internal,
    Leaf,
    ProductDistribution,
    Restriction,
    TargetOracle,
    TreeFormatError,
    TreeOracle,
    TruthTableOracle,
    average_depth,
    max_depth,
    parse_distribution,
    parse_tree,
    route,
    serialize_distribution,
    serialize_tree,
    size,
)
from .exact import EnumerationLimitError, SubfunctionView, f_completion, tree_error
from .greedy import GreedyResult, build_topdown_exact
from .sampling import PracticalResult, build_topdown_practical

__all__ = [
    "BareLeaf",
    "BareTree",
    "DecisionTree",
    "EnumerationLimitError",
    "GreedyResult",
    "Internal",
    "Leaf",
    "PracticalResult",
    "ProductDistribution",
    "Restriction",
    "SubfunctionView",
    "TargetOracle",
    "TreeFormatError",
    "TreeOracle",
    "TruthTableOracle",
    "average_depth",
    "build_topdown_exact",
    "build_topdown_practical",
    "f_completion",
    "max_depth",
    "parse_distribution",
    "parse_tree",
    "route",
    "serialize_distribution",
    "serialize_tree",
    "size",
    "tree_error",
]

__version__ = "0.1.0"
