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
Routing has a third, ``route_groups``, read by ``route_codes`` and sampling.

Large draws run on worker threads, one per CPU, in a module-private pool
started by the first such draw.  The threads only fill disjoint slices of
a code array from private generators; they never call an oracle.  A forked
child drops the inherited pool, whose threads did not survive the fork,
and starts its own.
"""

from __future__ import annotations

import json
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "BareLeaf",
    "BareTree",
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

        The empty restriction has probability 1.
        """
        prob = 1.0
        for i, b in restriction.items():
            if not 0 <= i < self.n:
                raise ValueError(f"coordinate {i} out of range for n={self.n}")
            prob *= self.biases[i] if b else 1.0 - self.biases[i]
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


@dataclass(frozen=True)
class Restriction:
    """Partial assignment of coordinates, e.g. the queries along a path."""

    fixed: tuple[tuple[int, int], ...] = ()

    def __init__(self, fixed: Mapping[int, int] | Sequence[tuple[int, int]] = ()):
        raw = list(fixed.items()) if isinstance(fixed, Mapping) else [tuple(p) for p in fixed]
        if len({i for i, _ in raw}) != len(raw):
            raise ValueError("coordinate fixed twice")
        for i, b in raw:
            if i < 0:
                raise ValueError(f"negative coordinate {i}")
            if b not in (0, 1):
                raise ValueError(f"bit for coordinate {i} must be 0 or 1, got {b!r}")
        object.__setattr__(self, "fixed", tuple(sorted(raw)))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.fixed)

    def coordinates(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.fixed)

    def __contains__(self, coordinate: int) -> bool:
        return any(i == coordinate for i, _ in self.fixed)

    def __len__(self) -> int:
        return len(self.fixed)

    def extend(self, coordinate: int, bit: int) -> "Restriction":
        if coordinate in self:
            raise ValueError(f"coordinate {coordinate} already fixed")
        return Restriction(dict(self.fixed) | {coordinate: bit})

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


def _validate(root: Node, want_bare: bool) -> None:
    ids: set[int] = set()
    for _, leaf in _leaves(root):
        if isinstance(leaf, BareLeaf) != want_bare:
            raise TreeFormatError(
                "labeled leaf in a bare tree" if want_bare else "unlabeled leaf in a labeled tree"
            )
        if want_bare:
            if leaf.id in ids:
                raise TreeFormatError(f"duplicate leaf identifier {leaf.id}")
            ids.add(leaf.id)


@dataclass(frozen=True)
class DecisionTree:
    """Labeled binary query tree; no variable repeats on any path."""

    root: Node

    def __post_init__(self):
        _validate(self.root, want_bare=False)


@dataclass(frozen=True)
class BareTree:
    """Query tree with unlabeled leaves carrying unique stable identifiers."""

    root: Node

    def __post_init__(self):
        _validate(self.root, want_bare=True)

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


def split_leaf(bare: BareTree, leaf_id: int, var: int, lo_id: int, hi_id: int) -> BareTree:
    """Replace leaf ``leaf_id`` with a query on ``var`` and two fresh leaves.

    All other leaves keep their identifiers.  Raises if the leaf does not
    exist or the split would repeat a path variable or reuse an identifier.
    """
    fresh = Internal(var, BareLeaf(lo_id), BareLeaf(hi_id))
    replaced = []

    def swap(leaf: Node) -> Node:
        if leaf.id != leaf_id:
            return leaf
        replaced.append(leaf)
        return fresh

    root = _map_leaves(bare.root, swap)
    if not replaced:
        raise KeyError(f"no leaf with identifier {leaf_id}")
    return BareTree(root)


def label_leaves(bare: BareTree, labels: Mapping[int, int]) -> DecisionTree:
    """The labeled tree of ``bare`` whose leaf ``id`` carries ``labels[id]``."""
    return DecisionTree(_map_leaves(bare.root, lambda leaf: Leaf(labels[leaf.id])))


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def route(tree: Tree, x: Sequence[int]) -> int:
    """Follow ``x`` from the root; returns the leaf label (labeled tree) or
    the leaf identifier (bare tree).

    Each internal node reads one coordinate; no coordinate is consulted
    twice because path variables never repeat.
    """
    node = tree.root
    while isinstance(node, Internal):
        if node.var >= len(x):
            raise ValueError(f"point has {len(x)} coordinates, tree queries x_{node.var}")
        node = node.hi if x[node.var] else node.lo
    return node.label if isinstance(node, Leaf) else node.id


def route_groups(tree: Tree, codes: np.ndarray) -> Iterator[tuple[Node, np.ndarray]]:
    """Yield each reached leaf, left to right, with the ascending indices of its codes."""
    # An explicit stack: a self-calling closure is a reference cycle, which
    # keeps ``codes`` and the index arrays alive until the cyclic GC runs.
    stack = [(tree.root, np.arange(len(codes)))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Internal):
            hi = ((codes[idx] >> np.uint64(node.var)) & np.uint64(1)).astype(bool)
            stack += [(node.hi, idx[hi]), (node.lo, idx[~hi])]
        elif len(idx):
            yield node, idx


def route_codes(tree: Tree, codes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`route` over packed codes; returns int64 labels/ids."""
    out = np.empty(len(codes), dtype=np.int64)
    for leaf, idx in route_groups(tree, codes):
        out[idx] = leaf.label if isinstance(leaf, Leaf) else leaf.id
    return out


def pack_bits(bits: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Pack an (N, n) 0/1 array into uint64 codes (bit i = coordinate i)."""
    arr = np.asarray(bits, dtype=np.uint64)
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


class TargetOracle:
    """Query access to a hidden Boolean target f: {0,1}^n -> {-1,+1}.

    ``label_codes`` must be a deterministic function of its input.  Random
    samples are drawn from a :class:`ProductDistribution` and labeled here.
    """

    n: int

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def label(self, x: Sequence[int]) -> int:
        return int(self.label_codes(pack_bits(np.asarray(x)))[0])


TABLE_MAX_COORDS = 24


class TreeOracle(TargetOracle):
    """Target given explicitly as a labeled decision tree.

    For n <= ``TABLE_MAX_COORDS`` the first ``label_codes`` call fills the
    target's dense +/-1 table (at most 2^24 bytes) from the tree's leaf
    paths, and every call then answers by indexing a
    :class:`TruthTableOracle`; larger n routes each code through the tree.
    The table is built lazily, so constructing an oracle stays cheap.  It is
    the oracle's own evaluation: a label query is still one code passed to
    ``label_codes``, which is all a :class:`CountingOracle` or a builder's
    query count sees.
    """

    def __init__(self, tree: DecisionTree, n: int):
        _check_dimension(n)
        vs = tree_variables(tree)
        if vs and max(vs) >= n:
            raise ValueError(f"tree queries x_{max(vs)} but n={n}")
        self.tree = tree
        self.n = n
        self._table: TruthTableOracle | None = None

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        if self.n > TABLE_MAX_COORDS:
            return route_codes(self.tree, codes).astype(np.int8)
        if self._table is None:
            self._table = TruthTableOracle(_fill_table(self.tree, self.n))
        return self._table.label_codes(codes)


def _fill_table(tree: DecisionTree, n: int) -> np.ndarray:
    """Dense label table indexed by packed code, one sub-cube per leaf.

    Axis n-1-i of the (2,)*n cube is coordinate i, so the C-order
    flattening puts the point with code c at index c.
    """
    cube = np.empty((2,) * n, dtype=np.int8)
    for path, leaf in _leaves(tree.root):
        index = [slice(None)] * n
        for i, b in path:
            index[n - 1 - i] = b
        cube[tuple(index)] = leaf.label
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
        return self.table[np.asarray(codes, dtype=np.uint64)]


class CountingOracle(TargetOracle):
    """Wrapper that counts label queries made against an inner oracle."""

    def __init__(self, inner: TargetOracle):
        self.inner = inner
        self.n = inner.n
        self.queries = 0

    def label_codes(self, codes: np.ndarray) -> np.ndarray:
        self.queries += len(codes)
        return self.inner.label_codes(codes)


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
        if set(obj) != {"leaf"} or obj["leaf"] not in (-1, 1):
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
    try:
        return ProductDistribution(obj["biases"])
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from exc
