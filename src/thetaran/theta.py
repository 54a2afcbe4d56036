"""Planar level trees and wreath-product morphisms between them.

A tree of height n is an object ``[p](T_1, ..., T_p)``: a root of rank p
whose children are trees of height n - 1, with height-1 trees being bare
ordinals [p].  The leaves of a tree are its level-n vertices, read in
planar (depth-first) order; vertices at lower levels may be childless, in
which case the tree is called unhealthy.

A morphism T -> S is a wreath datum: a monotone base map between the root
ranks together with, for every pair (i, j) such that the circle
construction sends target child j onto source child i, a morphism
T_i -> S_j one height down.  Composition matches fiber indices through the
circle construction, which runs contravariantly; consequently the
finite-set map a morphism induces on each level (the leaf row of its
truncation to that level) goes from the target's vertex set to the
source's.

The module also provides the classification flags used downstream:

* active: every level of the wreath datum is an active monotone map;
* in_w:   active and the leaf row is a bijection;
* exit:   active, both endpoints healthy and nonempty, and the map on
          every level surjective, which for such endpoints the leaf row
          alone decides (see classify_morphism);

together with pruning (the left adjoint onto healthy trees, with its
unit), hom-set enumeration under a resource cap, tree text and morphism
JSON.

Into a healthy target an active morphism is fixed by its leaf row, so w
hom-sets are listed in one form, as rows: one walk (_injective_rows),
gathered over fiber plans cached per pair of leaf profiles
(_injective_bases) and assembled base by base into one tuple; one row
cache for the child pairs it recurs on (_masked_rows, the rows also
indexed by leaf mask, so that between equal leaf counts the last pair's
row is looked up, not scanned for); and one reader of a tree's rows
(w_hom_rows).  The pruning check assembles an unhealthy tree's pruned
side only where its walk differs from the tree's.  morphism_of_row
rebuilds a row's wreath datum, for enumerate_theta_hom and for the
point assignments of ``config``, memoized, so equal rows share one
morphism and its components.  The wreath-level walk of the same
hom-sets is the reference in ``harness``.

All values are immutable and no function changes module state;
enumeration and classification are pure and cache aggressively.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, pairwise, product
from math import comb

from .simplex import (
    CompositionError,
    MonotoneMap,
    compose_delta,
    enumerate_delta_hom,
    identity_delta,
    simplicial_circle,
)

DEFAULT_HOM_CAP = 10**6

# Tree height, and so nesting depth, that ``parse_tree``, ``healthy_trees``
# and configurations accept.  Tree walks (formatting, leaves, pruning)
# recurse once per level, so this stays far below the interpreter's
# recursion limit.
MAX_TREE_DEPTH = 200


def check_height(what: str, height: int) -> None:
    """ValueError naming the bound when ``height`` exceeds MAX_TREE_DEPTH."""
    if height > MAX_TREE_DEPTH:
        raise ValueError(
            f"{what} {height} exceeds the tree-height bound {MAX_TREE_DEPTH}"
        )


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


def check_cap(count: int, cap: int | None, what: str, source=None, target=None,
              exact: bool = True) -> None:
    """The one cap decision, made before the counted list is built:
    ResourceCapError when ``count`` exceeds ``cap`` (None: no cap), naming
    ``what`` and the hom-set source -> target if given, with ``count`` only
    if ``exact`` (else "more than cap").  Builds no text unless it raises."""
    if cap is not None and count > cap:
        amount = count if exact else f"more than {cap}"
        if source is not None:
            what += f" for {format_tree(source)} -> {format_tree(target)}"
        raise ResourceCapError(f"{amount} {what} exceed the cap of {cap}")


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class Tree:
    """A planar level tree of the given height.

    ``rank`` is the number of root children; for height >= 2 these are the
    trees in ``children`` (exactly ``rank`` of them, each one height lower),
    while at height 1 the rank alone records the leaves.
    """

    height: int
    rank: int
    children: tuple[Tree, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError("tree height must be at least 1")
        if self.rank < 0:
            raise ValueError("tree rank must be nonnegative")
        if self.height == 1:
            if self.children:
                raise ValueError("height-1 trees carry no child trees")
        else:
            if len(self.children) != self.rank:
                raise ValueError(
                    f"rank {self.rank} tree needs {self.rank} children, "
                    f"got {len(self.children)}"
                )
            for child in self.children:
                if child.height != self.height - 1:
                    raise ValueError(
                        f"child of height-{self.height} tree must have height "
                        f"{self.height - 1}, got {child.height}"
                    )
        # trees key every enumeration cache; hash once, not per lookup
        object.__setattr__(
            self, "_hash", hash((self.height, self.rank, self.children))
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def leaf_count(self) -> int:
        if self.height == 1:
            return self.rank
        return sum(child.leaf_count for child in self.children)

    @cached_property
    def leaf_profile(self) -> tuple[int, ...]:
        """Leaf counts of the root's children, in order; () at height 1."""
        return tuple(child.leaf_count for child in self.children)

    @cached_property
    def vertex_count(self) -> int:
        """Vertices below the root (the root itself is not counted)."""
        return self.rank + sum(child.vertex_count for child in self.children)

    @cached_property
    def is_healthy(self) -> bool:
        """True when no vertex below the leaf level is childless.

        The all-empty tree of each height counts as healthy.  Equivalent to
        every downward map in the layer diagram being surjective.
        """
        if self.height == 1 or self.rank == 0:
            return True
        return all(c.is_healthy and c.leaf_count > 0 for c in self.children)

    def __str__(self) -> str:
        return format_tree(self)


def empty_tree(height: int) -> Tree:
    return Tree(height, 0, ())


def format_tree(tree: Tree) -> str:
    """Canonical text form, e.g. ``[3]([1],[3],[0])``.

    Rank-0 trees print as ``[0]`` whatever their height; parse_tree takes an
    optional height argument to lift them back when it matters.
    """
    if tree.height == 1 or tree.rank == 0:
        return f"[{tree.rank}]"
    return f"[{tree.rank}](" + ",".join(format_tree(c) for c in tree.children) + ")"


def _promote(tree: Tree, height: int) -> Tree:
    if tree.height == height:
        return tree
    if tree.height > height:
        raise ValueError(
            f"cannot view a height-{tree.height} tree at height {height}"
        )
    if tree.rank != 0:
        raise ValueError(
            f"cannot view nonempty tree {format_tree(tree)} of height "
            f"{tree.height} at height {height}; write its levels explicitly"
        )
    return Tree(height, 0, ())


def parse_tree(text: str, height: int | None = None) -> Tree:
    """Parse the ``[p](T_1,...,T_p)`` grammar.

    Heights are inferred minimally; rank-0 subtrees are lifted to match
    their siblings, and the optional ``height`` lifts the final result.
    """
    tree, pos = _parse_tree(text, 0, 1)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}: {text[pos:]!r}")
    if height is not None:
        check_height("height", height)
        tree = _promote(tree, height)
    return tree


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_tree(text: str, pos: int, depth: int) -> tuple[Tree, int]:
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"tree nested deeper than {MAX_TREE_DEPTH} levels")
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "[":
        raise ValueError(f"expected '[' at position {pos} in {text!r}")
    end = text.find("]", pos)
    if end < 0:
        raise ValueError(f"unclosed '[' at position {pos} in {text!r}")
    digits = text[pos + 1 : end].strip()
    if not digits.isdigit():
        raise ValueError(f"expected a rank at position {pos + 1} in {text!r}")
    rank = int(digits)
    pos = _skip_ws(text, end + 1)
    if pos >= len(text) or text[pos] != "(":
        return Tree(1, rank), pos
    pos = _skip_ws(text, pos + 1)
    children: list[Tree] = []
    if pos < len(text) and text[pos] == ")":
        pos += 1  # "[0]()" style: an explicit, empty child list
    else:
        while True:
            child, pos = _parse_tree(text, pos, depth + 1)
            children.append(child)
            pos = _skip_ws(text, pos)
            if pos >= len(text):
                raise ValueError(f"unclosed '(' in {text!r}")
            if text[pos] == ",":
                pos = _skip_ws(text, pos + 1)
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise ValueError(f"expected ',' or ')' at position {pos} in {text!r}")
    if len(children) != rank:
        raise ValueError(
            f"rank {rank} does not match {len(children)} children in {text!r}"
        )
    child_height = max((c.height for c in children), default=1)
    children = [_promote(c, child_height) for c in children]
    return Tree(child_height + 1, rank, tuple(children)), pos


def tree_sort_key(tree: Tree):
    return (tree.height, tree.rank, tuple(tree_sort_key(c) for c in tree.children))


# ---------------------------------------------------------------------------
# layer diagrams


@dataclass(frozen=True)
class LayerDiagram:
    """Vertex sets of a tree by level, top (leaf level) first.

    ``sizes[d]`` is the number of vertices at level height - d, and
    ``parent_maps[d]`` sends each such vertex (1-based, planar order) to its
    parent one level down.
    """

    sizes: tuple[int, ...]
    parent_maps: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def leaves(tree: Tree) -> LayerDiagram:
    """The layer diagram of a tree: leaves, then each truncation's leaves."""
    if tree.height == 1:
        return LayerDiagram((tree.rank,), ())
    child = [leaves(c) for c in tree.children]
    sizes = [sum(cd.sizes[d] for cd in child) for d in range(tree.height - 1)]
    sizes.append(tree.rank)
    maps: list[tuple[int, ...]] = []
    for d in range(tree.height - 2):
        row: list[int] = []
        offset = 0
        for cd in child:
            row.extend(v + offset for v in cd.parent_maps[d])
            offset += cd.sizes[d + 1]
        maps.append(tuple(row))
    bottom: list[int] = []
    for c_index, cd in enumerate(child, start=1):
        bottom.extend([c_index] * cd.sizes[tree.height - 2])
    maps.append(tuple(bottom))
    return LayerDiagram(tuple(sizes), tuple(maps))


# ---------------------------------------------------------------------------
# morphisms


@lru_cache(maxsize=None)
def fiber_pairs(base: MonotoneMap) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j): target child j lies over source child i, ascending j."""
    circ = simplicial_circle(base)
    return tuple((i, j) for j, i in circ.pairs)


@dataclass(frozen=True)
class ThetaMorphism:
    """A wreath datum from ``source`` to ``target`` (same height).

    ``components`` is aligned with ``fiber_pairs(base)``: for the k-th pair
    (i, j) the k-th component is a morphism source.children[i-1] ->
    target.children[j-1].  Height-1 morphisms are bare base maps.
    Equality is structural; no quotienting happens here.
    """

    source: Tree
    target: Tree
    base: MonotoneMap
    components: tuple[ThetaMorphism, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source.height != self.target.height:
            raise ValueError("morphism endpoints must have equal heights")
        if self.base.source_rank != self.source.rank:
            raise ValueError("base map does not match the source rank")
        if self.base.target_rank != self.target.rank:
            raise ValueError("base map does not match the target rank")
        if self.source.height == 1:
            if self.components:
                raise ValueError("height-1 morphisms carry no components")
        else:
            pairs = fiber_pairs(self.base)
            if len(pairs) != len(self.components):
                raise ValueError(
                    f"expected {len(pairs)} components, got {len(self.components)}"
                )
            for (i, j), comp in zip(pairs, self.components):
                if comp.source != self.source.children[i - 1]:
                    raise ValueError(
                        f"component over pair ({i},{j}) has the wrong source"
                    )
                if comp.target != self.target.children[j - 1]:
                    raise ValueError(
                        f"component over pair ({i},{j}) has the wrong target"
                    )
        object.__setattr__(
            self,
            "_hash",
            hash((self.source, self.target, self.base, self.components)),
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def component_by_target(self) -> dict[int, ThetaMorphism]:
        return {
            j: comp
            for (_, j), comp in zip(fiber_pairs(self.base), self.components)
        }

    @property
    def height(self) -> int:
        return self.source.height


def identity_theta(tree: Tree) -> ThetaMorphism:
    if tree.height == 1:
        return ThetaMorphism(tree, tree, identity_delta(tree.rank))
    comps = tuple(identity_theta(c) for c in tree.children)
    return ThetaMorphism(tree, tree, identity_delta(tree.rank), comps)


def compose_theta(second: ThetaMorphism, first: ThetaMorphism) -> ThetaMorphism:
    """The composite ``second`` after ``first``."""
    if first.target != second.source:
        raise CompositionError(
            "middle objects disagree: "
            f"{format_tree(first.target)} vs {format_tree(second.source)}"
        )
    base = compose_delta(second.base, first.base)
    if first.height == 1:
        return ThetaMorphism(first.source, second.target, base)
    second_circ = simplicial_circle(second.base)
    comps = []
    for _, k in fiber_pairs(base):
        j = second_circ.apply(k)
        comps.append(
            compose_theta(
                second.component_by_target[k], first.component_by_target[j]
            )
        )
    return ThetaMorphism(first.source, second.target, base, tuple(comps))


# ---------------------------------------------------------------------------
# leaf rows and classification


@lru_cache(maxsize=None)
def leaf_row(m: ThetaMorphism) -> tuple[int | None, ...]:
    """The top-level finite-set map of a morphism, target leaves to
    source leaves, with None for a leaf sent to the basepoint (only
    non-active morphisms have one)."""
    if m.height == 1:
        circ = simplicial_circle(m.base)
        return tuple(circ.apply(j) for j in range(1, m.target.rank + 1))
    pairs = fiber_pairs(m.base)
    i_of = {j: i for i, j in pairs}
    comp_rows = {j: leaf_row(c) for (_, j), c in zip(pairs, m.components)}
    offsets = tuple(accumulate(m.source.leaf_profile, initial=0))
    row: list[int | None] = []
    for j, child in enumerate(m.target.children, start=1):
        if j in comp_rows:
            off = offsets[i_of[j] - 1]
            row.extend(None if v is None else v + off for v in comp_rows[j])
        else:
            row.extend([None] * child.leaf_count)
    return tuple(row)


def morphism_of_row(
    source: Tree, target: Tree, row: Iterable[int]
) -> ThetaMorphism:
    """The active morphism source -> target whose leaf row is ``row``
    (the source leaf, 1-based, of each target leaf), inverting leaf_row
    into a healthy target, where every vertex has a leaf above it.

    Read one level at a time: the leaves over each target child must go
    to one source child, and these choices, like a height-1 row, must be
    weakly increasing.  Any other row raises ValueError.  Below the range
    and length checks the rebuild is memoized, child pairs included: equal
    inputs return the identical morphism, checked once when first built,
    and a rejected row, never stored, raises on every call.
    """
    if source.height != target.height:
        raise ValueError("morphism endpoints must have equal heights")
    row = tuple(row)
    span = range(1, source.leaf_count + 1)
    if len(row) != target.leaf_count or not all(v in span for v in row):
        raise ValueError(
            f"a leaf row {format_tree(source)} -> {format_tree(target)} "
            f"needs {target.leaf_count} values in 1..{source.leaf_count}"
        )
    return _morphism_of_row(source, target, row)


@lru_cache(maxsize=None)
def _morphism_of_row(
    source: Tree, target: Tree, row: tuple[int, ...]
) -> ThetaMorphism:
    if source.height == 1:
        return ThetaMorphism(source, target, _base_of(row, source.rank, target.rank))
    offsets = tuple(accumulate(source.leaf_profile, initial=0))
    # child_of[v]: the root child of source leaf v
    child_of = [0]
    for i, child in enumerate(source.children, start=1):
        child_of.extend([i] * child.leaf_count)
    starts = accumulate(target.leaf_profile, initial=0)
    level_map, blocks = [], []
    for start, child in zip(starts, target.children):
        block = row[start : start + child.leaf_count]
        if not block:
            raise ValueError("a target child has no leaf to send")
        i = child_of[block[0]]
        if any(child_of[v] != i for v in block):
            raise ValueError("a target child's leaves go to distinct source children")
        level_map.append(i)
        blocks.append(tuple(v - offsets[i - 1] for v in block))
    base = _base_of(level_map, source.rank, target.rank)
    components = tuple(
        _morphism_of_row(source.children[i - 1], child, block)
        for i, child, block in zip(level_map, target.children, blocks)
    )
    return ThetaMorphism(source, target, base, components)


def _base_of(level_map, source_rank: int, target_rank: int) -> MonotoneMap:
    """The active base whose circle sends target vertex j to source
    vertex level_map[j - 1]; the level map must be weakly increasing."""
    if any(a > b for a, b in pairwise(level_map)):
        raise ValueError("level map is not monotone")
    counts = [0] * (source_rank + 1)
    for i in level_map:
        counts[i] += 1
    return MonotoneMap(source_rank, target_rank, tuple(accumulate(counts)))


def _is_active(m: ThetaMorphism) -> bool:
    return m.base.is_active and all(_is_active(c) for c in m.components)


@dataclass(frozen=True)
class MorphismFlags:
    active: bool
    exit: bool
    in_w: bool


def classify_morphism(m: ThetaMorphism) -> MorphismFlags:
    """Activeness, exit membership and leaf-bijectivity, from the leaf row.

    Truncating ``m`` to a level gives a finite-set map from the target's
    vertices at that level to the source's (the truncation's leaf row),
    and these maps commute with the parent maps of the two layer
    diagrams.  An active morphism hits no basepoint at any level, so its
    leaf row is a map from the target leaves to the source leaves.

    * in_w: active, and the leaf row is a bijection onto the source leaves.
    * exit: active, both endpoints healthy and nonempty, and every level's
      map surjective.  The leaf row alone decides the last condition: in
      a healthy nonempty source every vertex v has a leaf l above it; if
      the leaf row sends the target leaf x to l, then commutation sends
      the vertex below x at v's level to v.  So a surjective leaf row
      makes every lower level surjective.
    """
    if not _is_active(m):
        return MorphismFlags(active=False, exit=False, in_w=False)
    row = leaf_row(m)
    hit = len(set(row))
    in_w = hit == len(row) == m.source.leaf_count
    # hit > 0 makes both endpoints nonempty: the row then has a target
    # leaf, and a surjective row a source leaf
    exit_flag = (
        0 < hit == m.source.leaf_count
        and m.source.is_healthy
        and m.target.is_healthy
    )
    return MorphismFlags(active=True, exit=exit_flag, in_w=in_w)


# ---------------------------------------------------------------------------
# hom-set enumeration


_FILTERS = ("all", "active", "exit", "w")


@lru_cache(maxsize=None)
def _hom_count(source: Tree, target: Tree, active_only: bool, bits: int) -> int:
    """The hom-set size _saturated at 2**bits, in closed form, so a cap is
    compared before anything is listed.  At height 1 a map [p] -> [q] is a
    multiset of p + 1 values in [q], and an active one fixes f(0) = 0 and
    f(p) = q.  Above it, a sum over the bases v_0 <= ... <= v_p: target
    child j lies over source child i when v_(i-1) < j <= v_i, so with
    ways[v] counting the choices for source children 1..i that end at
    v_i = v, child i adds ways[v - 1] * #(child i -> target child v) to
    ways[v], v ascending.  Active bases run from v_0 = 0 to v_p = q.
    """
    p, q = source.rank, target.rank
    if source.height == 1:
        if not active_only:
            return _binomial(p + q + 1, q, bits)
        return _binomial(p + q - 1, q, bits) if p else int(q == 0)
    ways = [1] + [int(not active_only)] * q
    for child in source.children:
        for v, target_child in enumerate(target.children, start=1):
            if ways[v - 1]:
                count = _hom_count(child, target_child, active_only, bits)
                ways[v] = _saturated(ways[v] + ways[v - 1] * count, bits)
    return _saturated(ways[q] if active_only else sum(ways), bits)


@lru_cache(maxsize=None)
def _enumerate_plain(
    source: Tree, target: Tree, active_only: bool
) -> tuple[ThetaMorphism, ...]:
    if source.height == 1:
        return tuple(
            ThetaMorphism(source, target, f)
            for f in enumerate_delta_hom(source.rank, target.rank, active_only)
        )
    out = []
    for base in enumerate_delta_hom(source.rank, target.rank, active_only):
        candidate_lists = [
            _enumerate_plain(
                source.children[i - 1], target.children[j - 1], active_only
            )
            for i, j in fiber_pairs(base)
        ]
        if any(not c for c in candidate_lists):
            continue
        for combo in product(*candidate_lists):
            out.append(ThetaMorphism(source, target, base, combo))
    return tuple(out)


def _saturated(value: int, bits: int) -> int:
    """min(value, 2**bits), or value for bits 0."""
    return 1 << bits if bits and value.bit_length() > bits else value


def _binomial(n: int, k: int, bits: int) -> int:
    """_saturated(comb(n, k), bits).  comb(n, i) grows with i up to n/2, at
    least as fast as 2**i, so the product saturates long before millions
    of digits are built."""
    if k > n:
        return 0
    k = min(k, n - k)
    if not bits:
        return comb(n, k)
    value = 1
    for i in range(k):
        value = value * (n - i) // (i + 1)
        if value.bit_length() > bits:
            return 1 << bits
    return value


def _printable(saturated_count, what: str, source: Tree, target: Tree) -> int:
    """saturated_count(bits), a count _saturated at 2**bits, or
    ResourceCapError when it has more decimal digits than Python prints
    (``sys.get_int_max_str_digits()``, 0 for no limit).  Saturated at
    2**(4 * limit) > 10**limit, and only a value above 2**(3 * limit) can
    reach 10**limit, so that power is rarely built."""
    limit = sys.get_int_max_str_digits()
    value = saturated_count(4 * limit)
    if limit and value.bit_length() > 3 * limit and value >= 10**limit:
        raise ResourceCapError(
            f"{what} {format_tree(source)} -> {format_tree(target)} has more "
            f"than {limit} decimal digits, too many to print"
        )
    return value


def _datum_key(m: ThetaMorphism):
    """Canonical order: base values, then the components in turn."""
    return (m.base.values, tuple(_datum_key(c) for c in m.components))


def enumerate_theta_hom(
    source: Tree,
    target: Tree,
    morphism_filter: str = "all",
    cap: int = DEFAULT_HOM_CAP,
) -> tuple[ThetaMorphism, ...]:
    """All morphisms source -> target passing the filter, in canonical
    order (see _datum_key).

    Filters: "all", "active", "exit" (active, healthy nonempty endpoints,
    surjective on every level), "w" (active with bijective leaf row).
    Where leaf rows stand for the hom-set (see _filter_rows) it is rebuilt
    from them by morphism_of_row; every other filter keeps what
    classify_morphism passes of the active (or every) morphism, listed
    once its closed-form count is within ``cap``.
    """
    if morphism_filter not in _FILTERS:
        raise ValueError(f"unknown filter {morphism_filter!r}; pick from {_FILTERS}")
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    rows = _filter_rows(source, target, morphism_filter, cap)
    if rows is not None:
        homs = [morphism_of_row(source, target, row) for row in rows]
        return tuple(sorted(homs, key=_datum_key))
    active_only = morphism_filter != "all"
    check_cap(count_filtered_hom(source, target, "active" if active_only else "all"),
              cap, "active morphisms" if active_only else "morphisms", source, target)
    homs = _enumerate_plain(source, target, active_only)
    if morphism_filter in ("all", "active"):
        return homs
    flag = "in_w" if morphism_filter == "w" else "exit"
    return tuple(m for m in homs if getattr(classify_morphism(m), flag))


# ---------------------------------------------------------------------------
# pruning


@dataclass(frozen=True)
class PruneResult:
    pruned: Tree
    morphism: ThetaMorphism  # the unit: original tree -> pruned tree


@lru_cache(maxsize=None)
def prune(tree: Tree) -> PruneResult:
    """Remove every leafless branch, with the collapsing unit morphism.

    A child is kept exactly when it has at least one leaf; kept children
    are pruned recursively.  The unit's base map sends each root position
    to the number of kept positions up to it, and its components are the
    children's units.  The result is always healthy, and the unit's leaf
    row is the identity (1..k), as only leafless branches go.
    """
    if tree.height == 1:
        return PruneResult(tree, identity_theta(tree))
    results = [prune(c) for c in tree.children if c.leaf_count]
    pruned = Tree(tree.height, len(results), tuple(r.pruned for r in results))
    kept = accumulate((c.leaf_count > 0 for c in tree.children), initial=0)
    base = MonotoneMap(tree.rank, len(results), tuple(kept))
    unit = ThetaMorphism(tree, pruned, base, tuple(r.morphism for r in results))
    return PruneResult(pruned, unit)


@dataclass(frozen=True)
class InitialityReport:
    passed: bool
    targets_checked: int
    morphisms_checked: int
    counterexample: str | None = None


@lru_cache(maxsize=None)
def _injective_bases(
    src_profile: tuple[int, ...], tgt_profile: tuple[int, ...]
) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The fiber plans of the active bases under which each source child
    receives at most as many target leaves as it has, in lexicographic
    order of the base values: for each base, one (i, j, offset) per target
    child j (zero-based, ascending), with i the source child it lies over
    and offset the source leaves before child i.

    An injective leaf map sends the target leaves over a fiber into its
    source child, so every morphism with one has such a base.  Depth
    first, value by value: v_i grows from v_(i-1) while child i's fiber
    fits its leaves, and only where the target leaves left fit the
    children after it; v_p is the target rank.  So no failing base is
    followed past its first failing value, and the C(p+q-1, p-1) active
    bases are never all listed.  With equal leaf totals the prefix sums of
    the profiles must agree at each v_i: one base if no target child is
    leafless.  Keyed by the profiles, so tree pairs share the walk; the
    base itself is _base_of the plan's source children, one-based.
    """
    p, q = len(src_profile), len(tgt_profile)
    if not p:
        return ((),) if not q else ()
    tgt_prefix = tuple(accumulate(tgt_profile, initial=0))
    src_prefix = tuple(accumulate(src_profile, initial=0))
    total = tgt_prefix[-1]
    # room[i]: the leaves of source children i + 1, ..., p
    room = tuple(accumulate(reversed(src_profile), initial=0))[::-1]
    out = []
    stack = [(0,)]
    while stack:
        values = stack.pop()
        i = len(values)  # the value to choose next
        if i > p:
            out.append(tuple((c, j, src_prefix[c]) for c in range(p)
                             for j in range(values[c], values[c + 1])))
            continue
        last = values[-1]
        step = []
        for v in range(q if i == p else last, q + 1):
            if tgt_prefix[v] - tgt_prefix[last] > src_profile[i - 1]:
                break
            if total - tgt_prefix[v] <= room[i]:
                step.append(values + (v,))
        stack.extend(reversed(step))
    return tuple(out)


@lru_cache(maxsize=None)
def _masked_rows(source: Tree, target: Tree, offset: int) -> tuple[tuple, dict]:
    """Injective-morphism rows shifted into the global leaf numbering,
    each paired with the bitmask of the leaves it uses, and the same rows
    grouped by mask (in list order); at offset 0 the child's row tuples
    themselves.  The one row cache: child pairs recur across bases and
    across trees."""
    out = []
    by_mask: dict[int, list[tuple[int, ...]]] = {}
    for row in _injective_rows(source, target):
        shifted = tuple(v + offset for v in row) if offset else row
        mask = 0
        for v in shifted:
            mask |= 1 << v
        out.append((shifted, mask))
        by_mask.setdefault(mask, []).append(shifted)
    return tuple(out), {mask: tuple(rows) for mask, rows in by_mask.items()}


# the one choice of an empty row, padding short lists of _masked_rows entries
_NO_ROW = ((((), 0),), {0: ((),)})


def _assemble_disjoint(
    entries: list[tuple[tuple, dict]], cover: int | None = None
) -> list[tuple[int, ...]]:
    """One row from each _masked_rows entry, masks pairwise disjoint,
    concatenated, in lexicographic order of the choices; given ``cover``,
    a mask holding every row, only the choices that use all of it.

    One list at a time, breadth first: a level holds every live prefix
    (its rows and their mask), and one comprehension extends it by the
    next list, dropping a prefix as soon as it collides, which the plain
    cartesian product cannot; another pairs the last two lists.  A level
    holds at most the product of the row counts of the lists so far, at
    most this base's term in _injective_row_bound.  Given ``cover``, the
    last row's mask is the rest of it: a lookup, no scan.
    """
    *heads, (second, _), (last, by_mask) = [_NO_ROW] * (2 - len(entries)) + entries
    level = [((), 0)]
    for rows, _ in heads:
        level = [(prefix + row, acc | mask) for prefix, acc in level
                 for row, mask in rows if not acc & mask]
    if cover is None:
        return [prefix + row + row2 for prefix, acc in level
                for row, mask in second if not acc & mask
                for row2, mask2 in last if not (acc | mask) & mask2]
    return [prefix + row + row2 for prefix, acc in level
            for row, mask in second if not acc & mask
            for row2 in by_mask.get(cover ^ acc ^ mask, ())]


def _injective_rows(
    source: Tree, target: Tree, cap: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Leaf rows of the active morphisms source -> target whose leaf map
    is injective, for a healthy target, whose leaf above every vertex
    makes each level of an active morphism into it recoverable from its
    leaf row: rows stand in for morphisms one to one.  At height 1 they
    are the q-subsets of the source leaves, in lexicographic order; above
    it, one per base and component choice (_gathered_walk,
    _assembled_rows), base by base in lexicographic order of the base
    values, then of the choices of one row per target child, each child
    pair's rows in this order.  So ``[1]([3]) -> [2]([1],[1])`` lists
    (1, 2), (1, 3), (2, 1), ..., the wreath enumeration (3, 2), (3, 1),
    ..., and enumerate_theta_hom sorts."""
    if source.height == 1:
        # rows of active maps [p] -> [q] are weakly increasing, so the
        # injective ones are exactly the strictly increasing q-tuples
        rows = tuple(combinations(range(1, source.rank + 1), target.rank))
        check_cap(len(rows), cap, "leaf rows", source, target)
        return rows
    return _assembled_rows(_gathered_walk(source, target), source, target, cap)


def _gathered_walk(source: Tree, target: Tree) -> list[list[tuple[tuple, dict]]]:
    """The walk of the injective rows source -> target above height 1:
    per fiber plan of _injective_bases, in order, the _masked_rows entry
    of each triple; a base with an empty entry adds no row, so it stops
    there and is left out."""
    children, target_children = source.children, target.children
    walk = []
    for plan in _injective_bases(source.leaf_profile, target.leaf_profile):
        entries = []
        for i, j, offset in plan:
            entry = _masked_rows(children[i], target_children[j], offset)
            if not entry[0]:
                break
            entries.append(entry)
        else:
            walk.append(entries)
    return walk


def _assembled_rows(
    walk: list, source: Tree, target: Tree, cap: int | None
) -> tuple[tuple[int, ...], ...]:
    """The rows of a gathered walk source -> target, base by base into
    one tuple, a function of the walk and the leaf counts.  With equal
    counts every row covers all source leaves, which fixes each last
    child row by its mask.  Raises ResourceCapError once a base takes the
    rows past ``cap``, and RuntimeError on a duplicate row, which would
    refute the correspondence of rows and morphisms."""
    # leaves 1..k, each covered once when the leaf counts agree
    cover = ((2 << source.leaf_count) - 2
             if source.leaf_count == target.leaf_count else None)
    rows = []
    for entries in walk:
        rows.extend(_assemble_disjoint(entries, cover))
        check_cap(len(rows), cap, "leaf rows", source, target, exact=False)
    if len(set(rows)) != len(rows):
        seen: set[tuple[int, ...]] = set()
        row = next(row for row in rows if row in seen or seen.add(row))
        raise RuntimeError(
            f"duplicate leaf row {row} for distinct morphisms "
            f"{format_tree(source)} -> {format_tree(target)}; "
            "rows do not determine morphisms here"
        )
    return tuple(rows)


def w_hom_rows(
    source: Tree, target: Tree, cap: int = DEFAULT_HOM_CAP
) -> tuple[tuple[int, ...], ...]:
    """Leaf rows of the leaf-bijective active morphisms source -> target,
    listed anew by each call.

    The target must be healthy, so rows determine morphisms (see
    _injective_rows).  Between equal leaf counts an injective leaf map is
    a bijection, so these are the injective rows; with unequal counts
    there are none.  ResourceCapError exactly when there are more than
    ``cap`` rows.  The pruning suite checks them row for row against the
    harness's wreath-level walk where it is affordable.
    """
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    if not target.is_healthy:
        raise ValueError(
            f"target {format_tree(target)} is unhealthy; leaf rows only "
            "determine morphisms into healthy trees"
        )
    if source.leaf_count != target.leaf_count:
        return ()
    return _injective_rows(source, target, cap)


@lru_cache(maxsize=None)
def _injective_row_bound(source: Tree, target: Tree, bits: int) -> int:
    """Closed-form upper bound on every list that listing the injective
    rows source -> target builds: the rows themselves, and each child
    pair's cached rows; _saturated at 2**bits, as _hom_count is, and read
    through _printable.

    At height 1 the rows are the q-subsets of the p source leaves, a
    binomial.  Above it each fiber plan of _injective_bases adds the
    product of its child pairs' bounds (disjointness only removes rows);
    the walk lists child pairs up to the first empty one, and the scan up
    to the first zero bound.
    """
    if source.height == 1:
        return _binomial(source.rank, target.rank, bits)
    rows = largest = 0
    for plan in _injective_bases(source.leaf_profile, target.leaf_profile):
        term = 1
        for i, j, _ in plan:
            child = _injective_row_bound(source.children[i], target.children[j], bits)
            largest = max(largest, child)
            term = _saturated(term * child, bits)
            if term == 0:
                break
        rows = _saturated(rows + term, bits)
    return max(rows, largest)


def _filter_rows(
    source: Tree, target: Tree, morphism_filter: str, cap: int
) -> tuple[tuple[int, ...], ...] | None:
    """The leaf rows standing for the filtered hom-set, or None where no
    rows do; listed once _injective_row_bound is within ``cap``.

    "w" into a healthy target: its rows (see _injective_rows).  "exit"
    needs healthy endpoints and a surjective leaf row (see
    classify_morphism), so it has none unless 0 < source leaves <= target
    leaves, and with equal leaf counts a surjective row is a "w" row.
    """
    if morphism_filter == "exit":
        if not (source.is_healthy and target.is_healthy
                and 0 < source.leaf_count <= target.leaf_count):
            return ()
        if source.leaf_count < target.leaf_count:
            return None
    elif morphism_filter != "w" or not target.is_healthy:
        return None
    if source.leaf_count != target.leaf_count:
        return ()
    bound = _printable(lambda bits: _injective_row_bound(source, target, bits),
                       "row bound", source, target)
    check_cap(bound, cap, "leaf rows by the closed-form bound", source, target)
    return w_hom_rows(source, target, cap)


def count_filtered_hom(
    source: Tree,
    target: Tree,
    morphism_filter: str = "all",
    cap: int = DEFAULT_HOM_CAP,
) -> int:
    """The one hom-set count: the size of source -> target under a filter
    of enumerate_theta_hom.  Exact in closed form (_hom_count) for "all"
    and "active", whatever ``cap``; else the leaf rows where they stand for
    the hom-set (see _filter_rows), or the enumeration, listed within
    ``cap``.  ResourceCapError past ``cap`` or too long to print."""
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    if morphism_filter in ("all", "active"):
        active_only = morphism_filter == "active"
        return _printable(lambda bits: _hom_count(source, target, active_only, bits),
                          "hom-set size", source, target)
    rows = _filter_rows(source, target, morphism_filter, cap)
    if rows is not None:
        return len(rows)
    return len(enumerate_theta_hom(source, target, morphism_filter, cap))


def verify_initiality_by_rows(tree: Tree, leaf_bound: int = 6) -> InitialityReport:
    """The row-level check of harness.verify_initiality, for big hom-sets.

    Same claim, checked on leaf rows.  Pruning only drops leafless
    branches, so the unit's leaf row is the identity (1..k), checked once
    per tree; composing with the unit then keeps every row of
    W(prune(tree), S), and these must be exactly the rows of W(tree, S),
    for every healthy S of matching height and leaf count.  Rows
    determine morphisms into healthy trees (a duplicate anywhere raises
    inside the row enumeration), so equal row sets are morphism-level
    existence and uniqueness of the factorization.

    A healthy tree is its own pruning (it has no leafless branch), so
    its rows are read once per target, through w_hom_rows.  Otherwise,
    per target, the tree's walk is gathered and assembled under the
    default cap of w_hom_rows, and the pruned tree's walk gathered, and
    assembled only if it differs: a leafless child has profile entry 0,
    so no target child lies over it in any fiber plan, and the tree's
    plans are the pruned tree's with the source children renumbered,
    whose rows agree by the same argument one height down; and pruning
    keeps the leaf count, so equal walks list equal rows.  The rows of
    walks that differ are compared as sets, which pass a reordering and
    catch a missing, repeated or foreign row.  The suite cross-checks
    the two verifiers where affordable.
    """
    if tree.leaf_count > leaf_bound:
        raise ValueError(
            f"tree has {tree.leaf_count} leaves, above the bound {leaf_bound}"
        )
    result = prune(tree)
    unit_row = leaf_row(result.morphism)
    if unit_row != tuple(range(1, tree.leaf_count + 1)):
        return InitialityReport(False, 0, 0, f"tree={format_tree(tree)} unit leaf "
                                f"row {unit_row} is not (1..{tree.leaf_count})")
    targets_checked = rows_checked = 0
    for target in healthy_trees(tree.height, tree.leaf_count):
        targets_checked += 1
        if tree.is_healthy:
            rows_checked += len(w_hom_rows(tree, target))
            continue
        walk = _gathered_walk(tree, target)
        direct = _assembled_rows(walk, tree, target, DEFAULT_HOM_CAP)
        rows_checked += len(direct)
        factored_walk = _gathered_walk(result.pruned, target)
        if factored_walk == walk:
            continue
        factored = _assembled_rows(factored_walk, result.pruned, target, DEFAULT_HOM_CAP)
        factored_set, direct_set = set(factored), set(direct)
        if len(factored_set) != len(factored) or factored_set != direct_set:
            return InitialityReport(False, targets_checked, rows_checked, (
                f"tree={format_tree(tree)} target={format_tree(target)} "
                f"rows: {len(direct)} direct vs {len(factored)} factored, "
                f"{len(factored_set & direct_set)} shared"))
    return InitialityReport(True, targets_checked, rows_checked)


# ---------------------------------------------------------------------------
# tree families


def _compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """All ordered tuples of positive integers with the given sum, in
    lexicographic order."""
    if total == 0:
        return ((),)
    return tuple(
        (part,) + rest
        for part in range(1, total + 1)
        for rest in _compositions(total - part)
    )


@lru_cache(maxsize=None)
def healthy_trees(height: int, leaf_count: int) -> tuple[Tree, ...]:
    """All healthy trees of the given height with exactly that many leaves."""
    if height < 1 or leaf_count < 0:
        raise ValueError("height must be >= 1 and leaf_count >= 0")
    check_height("height", height)
    if leaf_count == 0:
        return (empty_tree(height),)
    if height == 1:
        return (Tree(1, leaf_count),)
    out = []
    for parts in _compositions(leaf_count):
        for combo in product(*(healthy_trees(height - 1, b) for b in parts)):
            out.append(Tree(height, len(parts), combo))
    return tuple(out)


def leafless_insertions(tree: Tree) -> list[Tree]:
    """All trees obtained by grafting one bare childless vertex somewhere."""
    if tree.height == 1:
        return []  # a new vertex at leaf level would be a leaf, not a decoration
    results = []
    stub = empty_tree(tree.height - 1)
    for pos in range(tree.rank + 1):
        grafted = tree.children[:pos] + (stub,) + tree.children[pos:]
        results.append(Tree(tree.height, tree.rank + 1, grafted))
    for idx, child in enumerate(tree.children):
        for replaced in leafless_insertions(child):
            updated = tree.children[:idx] + (replaced,) + tree.children[idx + 1 :]
            results.append(Tree(tree.height, tree.rank, updated))
    return results


def decorated_trees(height: int, leaf_count: int, max_extra: int) -> tuple[Tree, ...]:
    """Healthy trees plus up to ``max_extra`` grafted leafless vertices.

    This is the finite stand-in for "all trees with this leaf count": the
    closure covers empty branches in every position, nested spines, and
    adjacent empties once max_extra >= 2.
    """
    current: set[Tree] = set(healthy_trees(height, leaf_count))
    seen = set(current)
    for _ in range(max_extra):
        grown: set[Tree] = set()
        for t in current:
            grown.update(leafless_insertions(t))
        grown -= seen
        seen |= grown
        current = grown
    return tuple(sorted(seen, key=tree_sort_key))


# ---------------------------------------------------------------------------
# serialization


def morphism_to_json(m: ThetaMorphism) -> dict:
    return {
        "height": m.height,
        "source": format_tree(m.source),
        "target": format_tree(m.target),
        "datum": _datum_to_json(m),
    }


def _datum_to_json(m: ThetaMorphism) -> dict:
    return {
        "base": str(m.base),
        "components": [_datum_to_json(c) for c in m.components],
    }
