"""Core data model: product distributions, binary query trees, and routing.

Inputs live on the Boolean cube {0,1}^n equipped with a product measure in
which coordinate i is 1 with probability ``biases[i]``.  Trees come in two
flavours: labeled trees whose leaves carry a class in {-1, +1}, and bare
trees whose leaves carry only a stable integer identifier (labels are
assigned later, e.g. by conditional majority).  ``lo`` is always the branch
taken when the queried bit is 0, ``hi`` the branch for bit 1; the JSON file
format below uses the same convention.

Points are handled in two equivalent forms: explicit 0/1 vectors for the
public API, and packed integer codes (bit i of the code is coordinate i)
for vectorized bulk work.

Two walks serve every structural query: ``_leaves`` reads a tree into its
(path, leaf) pairs, and ``_map_leaves`` rebuilds it with each leaf replaced.
``route_codes`` answers a tree that queries only bits below 16 from a table
of leaf values that each tree object fills once, on first use, with the
filler of ``TreeOracle``'s label table; a wider tree is routed by a third
walk, ``route_groups``.  A bare tree keeps its leaves' paths by identifier
and hands out new leaves' identifiers, so ``split_leaf`` rebuilds only the
nodes above the leaf it splits.

Large draws run on worker threads, one per CPU, in a module-private pool
started by the first such draw.  The threads only fill disjoint slices of
a code array from private generators; they never call an oracle.  A forked
child drops the inherited pool, whose threads did not survive the fork,
and starts its own.
"""

from __future__ import annotations

import bisect
import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "BareLeaf",
    "BareTree",
    "CompiledLeaves",
    "CountingOracle",
    "DecisionTree",
    "Internal",
    "Leaf",
    "ProductDistribution",
    "Restriction",
    "TargetOracle",
    "TreeFormatError",
    "TreeOracle",
    "TruthTableOracle",
    "average_depth",
    "label_leaves",
    "leaf_paths",
    "max_depth",
    "pack_bits",
    "parse_distribution",
    "parse_tree",
    "route",
    "route_codes",
    "route_groups",
    "serialize_distribution",
    "serialize_tree",
    "size",
    "split_leaf",
    "tree_variables",
    "unpack_bits",
]


class TreeFormatError(ValueError):
    """Malformed tree or distribution document, or an invalid tree shape."""


# ---------------------------------------------------------------------------
# Distributions and restrictions
# ---------------------------------------------------------------------------

MAX_CODE_BITS = 64


def _check_dimension(n: int) -> None:
    """Refuse dimensions that packed uint64 codes cannot hold.

    Shifts past bit 63 wrap, so a larger n would silently corrupt every
    code and label; callers that create codes check here first.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    if n > MAX_CODE_BITS:
        raise ValueError(f"packed codes hold at most {MAX_CODE_BITS} coordinates, got n={n}")


@dataclass(frozen=True)
class ProductDistribution:
    """Product measure on {0,1}^n; ``biases[i]`` is Pr[x_i = 1].

    Biases of exactly 0 or 1 are rejected: coordinate re-randomization (the
    basis of the influence notion used throughout) degenerates there, and
    every leaf of every tree keeps strictly positive reach probability.
    """

    biases: tuple[float, ...]

    def __init__(self, biases: Sequence[float]):
        biases = tuple(float(p) for p in biases)
        _check_dimension(len(biases))
        for i, p in enumerate(biases):
            if not 0.0 < p < 1.0:
                raise ValueError(f"bias {p!r} at coordinate {i} not strictly inside (0,1)")
        object.__setattr__(self, "biases", biases)

    @property
    def n(self) -> int:
        return len(self.biases)

    def reach_probability(self, restriction: "Restriction") -> float:
        """Probability that a random point agrees with ``restriction``.

        The empty restriction has probability 1.  The factors multiply in
        ascending coordinate order.
        """
        fixed, biases = restriction.fixed, self.biases
        if fixed and fixed[-1][0] >= len(biases):  # sorted, and never negative
            first = fixed[bisect.bisect(fixed, (len(biases),))][0]
            raise ValueError(f"coordinate {first} out of range for n={len(biases)}")
        prob = 1.0
        for i, b in fixed:
            prob *= biases[i] if b else 1.0 - biases[i]
        return prob

    def draw_codes(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` independent points, packed as uint64 codes.

        Stream-position contract: bit i of point j is ``u < biases[i]``,
        where u is the (i * count + j)-th double ``rng`` would yield, and
        afterwards ``rng`` stands n * count doubles further on with any
        pending 32-bit half kept.  So the codes and every later draw equal
        those of drawing ``rng.random(count)`` once per coordinate in
        ascending order, however the work is split.

        For a ``PCG64`` generator, a machine with several CPUs and at least
        two blocks of ``_MIN_BLOCK`` points, the points are filled in
        blocks on the draw threads, each from a private copy of the stream
        positioned with ``advance``.  Otherwise one block is filled inline
        from ``rng`` itself.
        """
        count = operator.index(count)  # advance() overflows on numpy integers
        codes = np.zeros(count, dtype=np.uint64)
        bit_gen = rng.bit_generator
        blocks = count // _MIN_BLOCK
        if blocks > _DRAW_THREADS:
            blocks -= blocks % _DRAW_THREADS  # an equal share per thread
        if type(bit_gen) is not np.random.PCG64 or _DRAW_THREADS < 2 or blocks < 2:
            _fill_block(rng, self.biases, codes, 0)
            return codes
        state = bit_gen.state
        bounds = [count * k // blocks for k in range(blocks + 1)]
        pool = _draw_pool()
        jobs = [
            pool.submit(_fill_positioned, state, a, self.biases, codes[a:b], count - (b - a))
            for a, b in zip(bounds, bounds[1:])
        ]
        for job in jobs:
            job.result()
        bit_gen.advance(self.n * count)
        # advance() drops a pending 32-bit half, which doubles never touch.
        half = {key: state[key] for key in ("has_uint32", "uinteger")}
        bit_gen.state = {**bit_gen.state, **half}
        return codes


# Parallel draws.  Blocks below this size cost more in thread hand-offs and
# GIL contention than they gain: 4096-point blocks made a C6 grid at n=12,
# then drawing 8K-33K points per call, 1.5-1.9x slower on 2 CPUs.
_MIN_BLOCK = 1 << 15
if hasattr(os, "sched_getaffinity"):
    _DRAW_THREADS = len(os.sched_getaffinity(0))
else:
    _DRAW_THREADS = os.cpu_count() or 1
# The pool also runs the exact engine's per-coordinate influence reductions.
_DRAW_POOL: list[ThreadPoolExecutor] = []  # at most one, made on first use
if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool object but none of its threads.
    os.register_at_fork(after_in_child=_DRAW_POOL.clear)


def _draw_pool() -> ThreadPoolExecutor:
    # Callers racing on the first draw can add a second pool; it stays
    # unused and, never given work, starts no thread.
    if not _DRAW_POOL:
        _DRAW_POOL.append(ThreadPoolExecutor(_DRAW_THREADS, "greedytree-draw"))
    return _DRAW_POOL[0]


def _fill_block(
    rng: np.random.Generator, biases: Sequence[float], codes: np.ndarray, skip: int
) -> None:
    """Set bit i of ``codes`` from the next ``len(codes)`` doubles of ``rng``
    for each coordinate i in turn, skipping ``skip`` stream positions
    between coordinates."""
    for i, p in enumerate(biases):
        if i and skip:
            rng.bit_generator.advance(skip)
        codes |= (rng.random(len(codes)) < p).astype(np.uint64) << np.uint64(i)


def _fill_positioned(
    state: dict, start: int, biases: Sequence[float], codes: np.ndarray, skip: int
) -> None:
    """``_fill_block`` on a private PCG64 copy of ``state`` advanced by
    ``start``; touches nothing but numpy, the copy and ``codes``."""
    bit_gen = np.random.PCG64(0)
    bit_gen.state = state
    bit_gen.advance(start)
    _fill_block(np.random.Generator(bit_gen), biases, codes, skip)


def _coordinate(value) -> int:
    """``value`` as a Python int; anything ``operator.index`` refuses, a
    float among them, raises a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"coordinate {value!r} is not an integer") from None


def _bit(value, coordinate: int) -> int:
    """``value`` as the Python int 0 or 1; anything else, 1.0 among them,
    raises a ValueError."""
    try:
        bit = operator.index(value)
    except TypeError:
        bit = -1
    if bit not in (0, 1):
        raise ValueError(f"bit for coordinate {coordinate} must be 0 or 1, got {value!r}")
    return bit


@dataclass(frozen=True)
class Restriction:
    """Partial assignment of coordinates, e.g. the queries along a path.
    Coordinates and bits go through ``operator.index`` and are stored as
    Python ints."""

    fixed: tuple[tuple[int, int], ...] = ()

    def __init__(self, fixed: Mapping[int, int] | Sequence[tuple[int, int]] = ()):
        pairs = fixed.items() if isinstance(fixed, Mapping) else [tuple(p) for p in fixed]
        raw = [(_coordinate(i), b) for i, b in pairs]
        if len({i for i, _ in raw}) != len(raw):
            raise ValueError("coordinate fixed twice")
        for i, _ in raw:
            if i < 0:
                raise ValueError(f"negative coordinate {i}")
        object.__setattr__(self, "fixed", tuple(sorted((i, _bit(b, i)) for i, b in raw)))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.fixed)

    def coordinates(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.fixed)

    def __contains__(self, coordinate: int) -> bool:
        return any(i == coordinate for i, _ in self.fixed)

    def __len__(self) -> int:
        return len(self.fixed)

    def extend(self, coordinate: int, bit: int) -> "Restriction":
        """This restriction with ``coordinate`` fixed to ``bit``: the pair is
        inserted in order, and the pairs already fixed are not checked again."""
        coordinate = _coordinate(coordinate)
        k = bisect.bisect(self.fixed, (coordinate,))  # (i,) sorts before (i, 0)
        if k < len(self.fixed) and self.fixed[k][0] == coordinate:
            raise ValueError(f"coordinate {coordinate} already fixed")
        if coordinate < 0:
            raise ValueError(f"negative coordinate {coordinate}")
        bit = _bit(bit, coordinate)
        out = object.__new__(Restriction)
        object.__setattr__(out, "fixed", self.fixed[:k] + ((coordinate, bit),) + self.fixed[k:])
        return out

    def base_code(self) -> int:
        """Packed code with the fixed bits set and every free bit 0."""
        code = 0
        for i, b in self.fixed:
            code |= b << i
        return code


# ---------------------------------------------------------------------------
# Tree nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    label: int

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise TreeFormatError(f"leaf label must be -1 or +1, got {self.label!r}")


@dataclass(frozen=True)
class BareLeaf:
    id: int


@dataclass(frozen=True)
class Internal:
    var: int
    lo: "Node"
    hi: "Node"

    def __post_init__(self):
        if self.var < 0:
            raise TreeFormatError(f"variable index must be nonnegative, got {self.var}")


Node = Union[Leaf, BareLeaf, Internal]


def _leaves(root: Node) -> list[tuple[tuple[tuple[int, int], ...], Node]]:
    """Every (path, leaf) pair, left to right with lo before hi; a path is
    the tuple of (variable, bit) queries from the root.  An explicit stack,
    not a self-calling closure, so a call leaves no reference cycle behind.
    """
    out: list[tuple[tuple[tuple[int, int], ...], Node]] = []
    stack = [((), 0, root)]  # (path, bitmask of its variables, node)
    while stack:
        path, used, node = stack.pop()
        if isinstance(node, Internal):
            if used >> node.var & 1:
                raise TreeFormatError(f"variable {node.var} repeated on a path")
            used |= 1 << node.var
            stack.append((path + ((node.var, 1),), used, node.hi))
            stack.append((path + ((node.var, 0),), used, node.lo))  # lo pops first
        elif isinstance(node, (Leaf, BareLeaf)):
            out.append((path, node))
        else:
            raise TreeFormatError(f"not a tree node: {node!r}")
    return out


def _map_leaves(node: Node, fn: Callable[[Node], Node]) -> Node:
    """The tree under ``node`` with each leaf replaced by ``fn(leaf)``."""
    if isinstance(node, Internal):
        return Internal(node.var, _map_leaves(node.lo, fn), _map_leaves(node.hi, fn))
    return fn(node)


_LeafPath = tuple[tuple[int, int], ...]


def _validate(root: Node, want_bare: bool) -> dict[int, _LeafPath]:
    """Check every leaf's kind and, in a bare tree, that no identifier
    repeats; returns each bare leaf's path by its identifier."""
    paths: dict[int, _LeafPath] = {}
    for path, leaf in _leaves(root):
        if isinstance(leaf, BareLeaf) != want_bare:
            raise TreeFormatError(
                "labeled leaf in a bare tree" if want_bare else "unlabeled leaf in a labeled tree"
            )
        if want_bare:
            if leaf.id in paths:
                raise TreeFormatError(f"duplicate leaf identifier {leaf.id}")
            paths[leaf.id] = path
    return paths


@dataclass(frozen=True)
class DecisionTree:
    """Labeled binary query tree; no variable repeats on any path.

    ``_route_table`` caches :func:`route_codes`' table of leaf labels.
    """

    root: Node
    _route_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.root, want_bare=False)


@dataclass(frozen=True)
class BareTree:
    """Query tree with unlabeled leaves carrying unique stable identifiers.

    ``_paths`` holds each leaf's path by its identifier, so that
    :func:`split_leaf` finds and checks a split without walking the tree.
    ``_next_id`` exceeds every identifier the tree has held; each split
    takes the next two.  ``_route_table`` caches :func:`route_codes`'
    table of leaf identifiers.
    """

    root: Node
    _paths: dict[int, _LeafPath] = field(init=False, repr=False, compare=False)
    _next_id: int = field(init=False, repr=False, compare=False)
    _route_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_paths", _validate(self.root, want_bare=True))
        object.__setattr__(self, "_next_id", max(self._paths) + 1)

    def leaf_ids(self) -> list[int]:
        return [leaf.id for _, leaf in _leaves(self.root)]


Tree = Union[DecisionTree, BareTree]


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def leaf_paths(tree: Tree) -> list[tuple[Restriction, Node]]:
    """All (path restriction, leaf) pairs in left-to-right order."""
    return [(Restriction(path), leaf) for path, leaf in _leaves(tree.root)]


def size(tree: Tree) -> int:
    """Number of leaves (= number of internal nodes + 1)."""
    return len(_leaves(tree.root))


def max_depth(tree: Tree) -> int:
    """Longest root-to-leaf path, in edges."""
    return max(len(path) for path, _ in _leaves(tree.root))


def average_depth(tree: Tree, dist: ProductDistribution) -> float:
    """Reach-probability-weighted mean leaf depth.

    Computed in the leaf-weighted form sum_v p_v * depth(v); this equals the
    sum of reach probabilities over all non-root nodes, an identity the test
    suite checks independently.
    """
    total = 0.0
    for restriction, _ in leaf_paths(tree):
        total += dist.reach_probability(restriction) * len(restriction)
    return total


def tree_variables(tree: Tree) -> frozenset[int]:
    """Every queried coordinate: each internal node lies on some leaf's path."""
    return frozenset(v for path, _ in _leaves(tree.root) for v, _ in path)


def split_leaf(bare: BareTree, leaf_id: int, var: int) -> tuple[BareTree, int, int]:
    """Replace leaf ``leaf_id`` with a query on ``var`` and two fresh leaves;
    returns the grown tree and the new leaves' identifiers, for bit 0 then 1.

    The new identifiers are the next two above every identifier the tree
    has held, and all other leaves keep theirs.  Raises if the leaf does
    not exist or the split would repeat a path variable.  Only the nodes on
    the leaf's path are rebuilt, and only the new node is checked, so the
    rebuild costs the leaf's depth.  The grown tree's path table is a copy
    of ``bare._paths`` with one entry per leaf, so a split also costs the
    tree's leaf count in dictionary entries.
    """
    path = bare._paths.get(leaf_id)
    if path is None:
        raise KeyError(f"no leaf with identifier {leaf_id}")
    if any(v == var for v, _ in path):
        raise TreeFormatError(f"variable {var} repeated on a path")
    lo_id, hi_id = bare._next_id, bare._next_id + 1
    spine, node = [], bare.root
    for _, bit in path:
        spine.append((node, bit))
        node = node.hi if bit else node.lo
    root = Internal(var, BareLeaf(lo_id), BareLeaf(hi_id))
    for node, bit in reversed(spine):
        root = Internal(node.var, node.lo, root) if bit else Internal(node.var, root, node.hi)
    paths = dict(bare._paths)
    del paths[leaf_id]
    paths[lo_id], paths[hi_id] = path + ((var, 0),), path + ((var, 1),)
    grown = object.__new__(BareTree)  # valid by the checks above
    object.__setattr__(grown, "root", root)
    object.__setattr__(grown, "_paths", paths)
    object.__setattr__(grown, "_next_id", hi_id + 1)
    return grown, lo_id, hi_id


def label_leaves(bare: BareTree, labels: Mapping[int, int]) -> DecisionTree:
    """The labeled tree of ``bare`` whose leaf ``id`` carries ``labels[id]``."""
    return DecisionTree(_map_leaves(bare.root, lambda leaf: Leaf(labels[leaf.id])))


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _leaf_value(leaf: Node) -> int:
    """What routing returns for ``leaf``: its label, or its identifier."""
    return leaf.label if isinstance(leaf, Leaf) else leaf.id


def route(tree: Tree, x: Sequence[int]) -> int:
    """Follow ``x`` from the root; returns the leaf label (labeled tree) or
    the leaf identifier (bare tree).

    Each internal node reads one coordinate; no coordinate is consulted
    twice because path variables never repeat.  A read coordinate whose
    value is not 0 or 1 is refused with a ValueError.
    """
    node = tree.root
    while isinstance(node, Internal):
        if node.var >= len(x):
            raise ValueError(f"point has {len(x)} coordinates, tree queries x_{node.var}")
        bit = x[node.var]
        if bit not in (0, 1):
            raise ValueError(f"x_{node.var} must be 0 or 1, got {bit!r}")
        node = node.hi if bit else node.lo
    return _leaf_value(node)


def route_groups(tree: Tree, codes: np.ndarray) -> Iterator[tuple[Node, np.ndarray]]:
    """Yield each reached leaf, left to right, with the ascending indices of its codes."""
    # An explicit stack: a self-calling closure is a reference cycle, which
    # keeps ``codes`` and the index arrays alive until the cyclic GC runs.
    stack = [(tree.root, np.arange(len(codes)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Internal):
            # Integer gathers: on numpy 2.4 boolean-mask gathers took about
            # 4x as long as flatnonzero followed by the integer gathers.
            hi = (codes[idx] & np.uint64(1 << node.var)) != 0
            stack += [(node.hi, idx[np.flatnonzero(hi)]), (node.lo, idx[np.flatnonzero(~hi)])]
        elif len(idx):
            yield node, idx


# A tree whose queried bits all lie below this one is routed by a table of
# at most 2^16 entries, as many as one slice of the practical builder has
# codes (``sampling._SLICE``), so filling it costs no more than routing one.
_ROUTE_TABLE_BITS = 16
_WALK = np.empty(0, dtype=np.int64)  # cached in place of a table on a wider tree


def route_codes(tree: Tree, codes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`route` over packed codes; returns int64 labels/ids.

    Let m be one more than the largest variable the tree queries.  When
    m <= 16, the first call fills a table of the 2^m leaf values by code,
    cached on the tree object, and every call answers with one lookup of
    each code's low m bits.  A wider tree walks :func:`route_groups`.
    """
    table = tree._route_table
    if table is None:
        if isinstance(tree, BareTree):  # its paths are kept: no walk
            leaves = [(path, leaf_id) for leaf_id, path in tree._paths.items()]
        else:
            leaves = [(path, leaf.label) for path, leaf in _leaves(tree.root)]
        m = 1 + max((v for path, _ in leaves for v, _ in path), default=-1)
        table = _fill_table(leaves, m, np.int64) if m <= _ROUTE_TABLE_BITS else _WALK
        object.__setattr__(tree, "_route_table", table)
    if table is _WALK:
        out = np.empty(len(codes), dtype=np.int64)
        for leaf, idx in route_groups(tree, codes):
            out[idx] = _leaf_value(leaf)
        return out
    low = np.asarray(codes, dtype=np.uint64) & np.uint64(len(table) - 1)
    return table.take(low.view(np.int64))


def pack_bits(bits: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Pack an (N, n) 0/1 array into uint64 codes (bit i = coordinate i).
    An entry other than 0 or 1 is refused with a ValueError."""
    raw = np.asarray(bits)
    bad = (raw != 0) & (raw != 1)
    if np.any(bad):
        raise ValueError(f"bits must be 0 or 1, got {raw[bad].tolist()[0]!r}")
    arr = raw.astype(np.uint64)
    if arr.ndim == 1:
        arr = arr[None, :]
    n = arr.shape[1]
    _check_dimension(n)
    codes = np.zeros(arr.shape[0], dtype=np.uint64)
    for i in range(n):
        codes |= arr[:, i] << np.uint64(i)
    return codes


def unpack_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns an (N, n) uint8 array."""
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.empty((len(codes), n), dtype=np.uint8)
    for i in range(n):
        out[:, i] = (codes >> np.uint64(i)) & np.uint64(1)
    return out


# ---------------------------------------------------------------------------
# Target oracles
# ---------------------------------------------------------------------------


class CompiledLeaves(NamedTuple):
    """A tree's leaves as parallel arrays, left to right: leaf k holds the
    codes c with ``c & mask[k] == value[k]`` and carries ``label[k]``."""

    mask: np.ndarray  # uint64: the coordinates queried on the leaf's path
    value: np.ndarray  # uint64: their bits on the path, 0 elsewhere
    label: np.ndarray  # int8


def _compile_leaves(tree: DecisionTree) -> CompiledLeaves:
    paths = _leaves(tree.root)
    return CompiledLeaves(
        np.array([sum(1 << i for i, _ in path) for path, _ in paths], dtype=np.uint64),
        np.array([sum(b << i for i, b in path) for path, _ in paths], dtype=np.uint64),
        np.array([leaf.label for _, leaf in paths], dtype=np.int8),
    )


class TargetOracle:
    """Query access to a hidden Boolean target f: {0,1}^n -> {-1,+1}.

    ``label_codes`` must be a deterministic function of its input.  Random
    samples are drawn from a :class:`ProductDistribution` and labeled here.
    """

    n: int

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compiled_leaves(self) -> CompiledLeaves | None:
        """The target's decision-tree leaves, or None when it has no tree
        form.  Reading them is not a label query."""
        return None

    def label(self, x: Sequence[int]) -> int:
        return int(self.label_codes(pack_bits(np.asarray(x)))[0])


TABLE_MAX_COORDS = 24


class TreeOracle(TargetOracle):
    """Target given explicitly as a labeled decision tree.

    For n <= ``TABLE_MAX_COORDS`` the first ``label_codes`` call fills the
    target's dense +/-1 table (at most 2^24 bytes) from the tree's leaf
    paths, and every call then answers by indexing a
    :class:`TruthTableOracle`.  Larger n labels with :func:`route_codes`,
    which fills its own table of labels with the same filler when the tree
    queries no bit from 16 up, and walks the tree otherwise.  The tables
    are built lazily, so constructing an oracle stays cheap.  It is
    the oracle's own evaluation: a label query is still one code passed to
    ``label_codes``, which is all a :class:`CountingOracle` or a builder's
    query count sees.  A code with a bit at or above n raises IndexError.

    :meth:`compiled_leaves` compiles the tree once, on its first call, into
    per-leaf arrays.  Reading them labels no point, so it is no label query.
    """

    def __init__(self, tree: DecisionTree, n: int):
        _check_dimension(n)
        vs = tree_variables(tree)
        if vs and max(vs) >= n:
            raise ValueError(f"tree queries x_{max(vs)} but n={n}")
        self.tree = tree
        self.n = n
        self._table: TruthTableOracle | None = None
        self._leaves: CompiledLeaves | None = None

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        if self.n > TABLE_MAX_COORDS:
            if len(codes) and int(np.max(codes)) >> self.n:  # the table refuses these too
                raise IndexError(f"code {np.max(codes)} has a bit at or above n={self.n}")
            return route_codes(self.tree, codes).astype(np.int8)
        if self._table is None:
            leaves = [(path, leaf.label) for path, leaf in _leaves(self.tree.root)]
            self._table = TruthTableOracle(_fill_table(leaves, self.n, np.int8))
        return self._table.label_codes(codes)

    def compiled_leaves(self) -> CompiledLeaves:
        if self._leaves is None:
            self._leaves = _compile_leaves(self.tree)
        return self._leaves


def _fill_table(
    leaves: Sequence[tuple[_LeafPath, int]], n: int, dtype: type[np.integer]
) -> np.ndarray:
    """Dense table indexed by packed code: each (path, value) of a tree's
    ``leaves`` fills the leaf's sub-cube of n bits with its value.

    Axis n-1-i of the (2,)*n cube is coordinate i, so the C-order
    flattening puts the point with code c at index c.
    """
    cube = np.empty((2,) * n, dtype=dtype)
    for path, value in leaves:
        index = [slice(None)] * n
        for i, b in path:
            index[n - 1 - i] = b
        cube[tuple(index)] = value
    return cube.reshape(-1)


class TruthTableOracle(TargetOracle):
    """Target given as a dense +/-1 table indexed by packed code."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=np.int8)
        if table.ndim != 1 or len(table) & (len(table) - 1) or len(table) < 2:
            raise ValueError("table length must be a power of two, at least 2")
        if not np.all(np.abs(table) == 1):
            raise ValueError("table values must be -1 or +1")
        self.table = table
        self.n = int(len(table).bit_length() - 1)

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        # take() on an int64 view indexes about 3x as fast as uint64 fancy
        # indexing on numpy 2.4, but reads a code of 2^63 or more as a
        # negative index, so the range is checked first.
        codes = np.asarray(codes, dtype=np.uint64)
        if len(codes) and codes.max() >= len(self.table):
            raise IndexError(f"code {codes.max()} out of range for a table of {len(self.table)}")
        return self.table.take(codes.view(np.int64))


class CountingOracle(TargetOracle):
    """Wrapper that counts label queries made against an inner oracle.

    It forwards :meth:`compiled_leaves` to the inner oracle without
    counting: reading a tree's leaves labels no point.
    """

    def __init__(self, inner: TargetOracle):
        self.inner = inner
        self.n = inner.n
        self.queries = 0

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        self.queries += len(codes)
        return self.inner.label_codes(codes)

    def compiled_leaves(self) -> CompiledLeaves | None:
        return self.inner.compiled_leaves()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# Tree documents (UTF-8 JSON):
#   labeled leaf   {"leaf": 1} or {"leaf": -1}
#   bare leaf      {"leaf": null, "id": <int>}
#   internal node  {"var": <0-based int>, "lo": <node for bit 0>, "hi": <node for bit 1>}
# Distribution documents: {"biases": [p_0, ..., p_{n-1}]}


def _node_to_obj(node: Node) -> dict:
    if isinstance(node, Internal):
        return {"var": node.var, "lo": _node_to_obj(node.lo), "hi": _node_to_obj(node.hi)}
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {"leaf": None, "id": node.id}


def _node_from_obj(obj: object) -> Node:
    if not isinstance(obj, dict):
        raise TreeFormatError(f"tree node must be an object, got {type(obj).__name__}")
    if "var" in obj:
        extra = set(obj) - {"var", "lo", "hi"}
        if extra or "lo" not in obj or "hi" not in obj:
            raise TreeFormatError(f"internal node must have exactly var/lo/hi, got {sorted(obj)}")
        var = obj["var"]
        if not isinstance(var, int) or isinstance(var, bool):
            raise TreeFormatError(f"variable index must be an integer, got {var!r}")
        return Internal(var, _node_from_obj(obj["lo"]), _node_from_obj(obj["hi"]))
    if "leaf" in obj:
        if obj["leaf"] is None:
            if set(obj) != {"leaf", "id"} or type(obj["id"]) is not int:  # not bool
                raise TreeFormatError("bare leaf must be {'leaf': null, 'id': <int>}")
            return BareLeaf(obj["id"])
        if set(obj) != {"leaf"} or type(obj["leaf"]) is not int or obj["leaf"] not in (-1, 1):
            raise TreeFormatError("labeled leaf must be {'leaf': 1} or {'leaf': -1}")
        return Leaf(obj["leaf"])
    raise TreeFormatError(f"node object needs 'var' or 'leaf', got keys {sorted(obj)}")


def serialize_tree(tree: Tree) -> str:
    return json.dumps(_node_to_obj(tree.root), separators=(",", ":"))


def parse_tree(text: str, n: int | None = None) -> Tree:
    """Parse a tree document; the result is labeled or bare depending on the
    leaves found.  When ``n`` is given, variable indices are checked against
    it; otherwise the ambient dimension is whatever the caller later uses.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON: {exc}") from exc
    root = _node_from_obj(obj)
    # The first leaf decides the kind; construction rejects a leaf of the other.
    tree: Tree = BareTree(root) if isinstance(_leaves(root)[0][1], BareLeaf) else DecisionTree(root)
    vs = tree_variables(tree)
    if n is not None and vs and max(vs) >= n:
        raise TreeFormatError(f"variable index {max(vs)} out of range for n={n}")
    return tree


def serialize_distribution(dist: ProductDistribution) -> str:
    return json.dumps({"biases": list(dist.biases)}, separators=(",", ":"))


def parse_distribution(text: str) -> ProductDistribution:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"biases"} or not isinstance(obj["biases"], list):
        raise TreeFormatError("distribution document must be {'biases': [...]}")
    for i, p in enumerate(obj["biases"]):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise TreeFormatError(
                f"bias {p!r} at coordinate {i} is not a JSON number (a float or an integer)"
            )
    try:
        return ProductDistribution(obj["biases"])
    except (OverflowError, ValueError) as exc:  # a bias out of range, or no bias at all
        raise TreeFormatError(str(exc)) from exc
