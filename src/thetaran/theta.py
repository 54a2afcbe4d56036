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

together with truncation (dropping top levels), pruning (the left adjoint
onto healthy trees, with its unit), hom-set enumeration under a resource
cap, and text/JSON serialization.

All values are immutable; enumeration and classification are pure and
cache aggressively, so concurrent readers are safe.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, islice, product
from math import comb

from .simplex import (
    CompositionError,
    MonotoneMap,
    compose_delta,
    enumerate_delta_hom,
    identity_delta,
    parse_monotone,
    simplicial_circle,
)

DEFAULT_HOM_CAP = 10**6

# Nesting depth ``parse_tree`` accepts.  Tree walks (formatting, leaves,
# pruning) recurse once per level, so this stays far below the
# interpreter's recursion limit.
MAX_TREE_DEPTH = 200


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


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
    offsets = []
    total = 0
    for c in m.source.children:
        offsets.append(total)
        total += c.leaf_count
    row: list[int | None] = []
    for j, child in enumerate(m.target.children, start=1):
        if j in comp_rows:
            off = offsets[i_of[j] - 1]
            row.extend(None if v is None else v + off for v in comp_rows[j])
        else:
            row.extend([None] * child.leaf_count)
    return tuple(row)


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
# truncation


def truncate(obj: Tree | ThetaMorphism, level: int):
    """Forget all structure above the given level.

    For trees this deletes the vertices at levels > level; for morphisms it
    drops the corresponding components, leaving the wreath datum of the
    truncated endpoints.
    """
    if isinstance(obj, Tree):
        return _truncate_tree(obj, level)
    if isinstance(obj, ThetaMorphism):
        return _truncate_morphism(obj, level)
    raise TypeError(f"cannot truncate {type(obj).__name__}")


def _truncate_tree(tree: Tree, level: int) -> Tree:
    if not (1 <= level <= tree.height):
        raise ValueError(f"level {level} outside 1..{tree.height}")
    if level == tree.height:
        return tree
    if level == 1:
        return Tree(1, tree.rank)
    return Tree(
        level, tree.rank, tuple(_truncate_tree(c, level - 1) for c in tree.children)
    )


def _truncate_morphism(m: ThetaMorphism, level: int) -> ThetaMorphism:
    if not (1 <= level <= m.height):
        raise ValueError(f"level {level} outside 1..{m.height}")
    if level == m.height:
        return m
    src = _truncate_tree(m.source, level)
    tgt = _truncate_tree(m.target, level)
    if level == 1:
        return ThetaMorphism(src, tgt, m.base)
    comps = tuple(_truncate_morphism(c, level - 1) for c in m.components)
    return ThetaMorphism(src, tgt, m.base, comps)


# ---------------------------------------------------------------------------
# hom-set enumeration


_FILTERS = ("all", "active", "exit", "w")


@lru_cache(maxsize=None)
def count_theta_hom(source: Tree, target: Tree, active_only: bool = False) -> int:
    """Exact hom-set size (all morphisms, or active ones only)."""
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    if source.height == 1:
        # closed form, so a cap is compared before anything is listed: a
        # map [p] -> [q] is a multiset of p + 1 values in [q], and an
        # active one fixes f(0) = 0 and f(p) = q, leaving p - 1 values
        p, q = source.rank, target.rank
        if not active_only:
            return comb(p + q + 1, p + 1)
        if p == 0:
            return int(q == 0)
        return comb(p + q - 1, p - 1)
    total = 0
    for base in enumerate_delta_hom(source.rank, target.rank, active_only):
        term = 1
        for i, j in fiber_pairs(base):
            term *= count_theta_hom(
                source.children[i - 1], target.children[j - 1], active_only
            )
            if term == 0:
                break
        total += term
    return total


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


@lru_cache(maxsize=None)
def _w_candidates(source: Tree, target: Tree) -> tuple[ThetaMorphism, ...]:
    """Active morphisms with injective leaf map, the building blocks of w."""
    out = []
    for m in _enumerate_plain(source, target, True):
        row = leaf_row(m)
        if len(set(row)) == len(row):
            out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _enumerate_w(source: Tree, target: Tree) -> tuple[ThetaMorphism, ...]:
    if source.leaf_count != target.leaf_count:
        return ()
    if source.height == 1:
        # an active monotone self-map with bijective fibers is the identity
        if source.rank == target.rank:
            return (identity_theta(source),)
        return ()
    out = []
    for base in _injective_bases(
        tuple(c.leaf_count for c in source.children),
        tuple(c.leaf_count for c in target.children),
    ):
        pairs = fiber_pairs(base)
        candidate_lists = [
            _w_candidates(source.children[i - 1], target.children[j - 1])
            for i, j in pairs
        ]
        if any(not c for c in candidate_lists):
            continue
        leaf_offsets = []
        total = 0
        for c in source.children:
            leaf_offsets.append(total)
            total += c.leaf_count
        for combo in product(*candidate_lists):
            seen: set[int] = set()
            ok = True
            for (i, _), comp in zip(pairs, combo):
                off = leaf_offsets[i - 1]
                for v in leaf_row(comp):
                    shifted = v + off
                    if shifted in seen:
                        ok = False
                        break
                    seen.add(shifted)
                if not ok:
                    break
            if ok and len(seen) == source.leaf_count:
                out.append(ThetaMorphism(source, target, base, combo))
    return tuple(out)


def enumerate_theta_hom(
    source: Tree,
    target: Tree,
    morphism_filter: str = "all",
    cap: int = DEFAULT_HOM_CAP,
) -> tuple[ThetaMorphism, ...]:
    """All morphisms source -> target passing the filter, canonical order.

    Filters: "all", "active", "exit" (active, healthy nonempty endpoints,
    surjective on every level), "w" (active with bijective leaf row).  The
    projected enumeration size (counted before materializing; the active
    count bounds the filtered ones) must stay within ``cap``.
    """
    if morphism_filter not in _FILTERS:
        raise ValueError(f"unknown filter {morphism_filter!r}; pick from {_FILTERS}")
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    projected = count_theta_hom(source, target, morphism_filter != "all")
    if projected > cap:
        raise ResourceCapError(
            f"projected hom-set size {projected} exceeds cap {cap} for "
            f"{format_tree(source)} -> {format_tree(target)}"
        )
    if morphism_filter == "all":
        return _enumerate_plain(source, target, False)
    if morphism_filter == "active":
        return _enumerate_plain(source, target, True)
    if morphism_filter == "w":
        return _enumerate_w(source, target)
    return tuple(
        m
        for m in _enumerate_plain(source, target, True)
        if classify_morphism(m).exit
    )


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
    map is a bijection.
    """
    if tree.height == 1:
        return PruneResult(tree, identity_theta(tree))
    selected = [
        i for i in range(1, tree.rank + 1) if tree.children[i - 1].leaf_count > 0
    ]
    child_results = [prune(tree.children[i - 1]) for i in selected]
    pruned = Tree(tree.height, len(selected), tuple(r.pruned for r in child_results))
    values = []
    kept = 0
    cursor = 0
    for i in range(tree.rank + 1):
        while cursor < len(selected) and selected[cursor] <= i:
            kept += 1
            cursor += 1
        values.append(kept)
    base = MonotoneMap(tree.rank, len(selected), tuple(values))
    unit = ThetaMorphism(
        tree, pruned, base, tuple(r.morphism for r in child_results)
    )
    return PruneResult(pruned, unit)


@dataclass(frozen=True)
class InitialityReport:
    passed: bool
    targets_checked: int
    morphisms_checked: int
    counterexample: str | None = None


def verify_initiality(
    tree: Tree, leaf_bound: int = 6, cap: int = DEFAULT_HOM_CAP
) -> InitialityReport:
    """Check that the pruning unit is initial among maps to healthy trees.

    For every healthy tree S of the same height with at most ``leaf_bound``
    leaves and every leaf-bijective active morphism f: tree -> S, exactly
    one g: prune(tree) -> S satisfies g after unit == f.  Targets with a
    different leaf count are skipped: a leaf bijection forces equality.
    """
    if tree.leaf_count > leaf_bound:
        raise ValueError(
            f"tree has {tree.leaf_count} leaves, above the bound {leaf_bound}"
        )
    result = prune(tree)
    targets_checked = 0
    morphisms_checked = 0
    for target in healthy_trees(tree.height, tree.leaf_count):
        targets_checked += 1
        outgoing = enumerate_theta_hom(tree, target, "w", cap)
        if not outgoing:
            continue
        factored = enumerate_theta_hom(result.pruned, target, "w", cap)
        composites = Counter(
            compose_theta(g, result.morphism) for g in factored
        )
        # per-morphism counts of 1 plus equal sizes pin down a bijection;
        # without the size check a composite falling outside the hom-set
        # could hide
        if len(factored) != len(outgoing):
            return InitialityReport(
                False,
                targets_checked,
                morphisms_checked,
                counterexample=(
                    f"tree={format_tree(tree)} target={format_tree(target)} "
                    f"hom sizes differ: {len(outgoing)} direct vs "
                    f"{len(factored)} factored"
                ),
            )
        for f in outgoing:
            morphisms_checked += 1
            matches = composites.get(f, 0)
            if matches != 1:
                return InitialityReport(
                    False,
                    targets_checked,
                    morphisms_checked,
                    counterexample=(
                        f"tree={format_tree(tree)} target={format_tree(target)} "
                        f"morphism base={f.base} factors {matches} times"
                    ),
                )
    return InitialityReport(True, targets_checked, morphisms_checked)


@lru_cache(maxsize=None)
def _injective_bases(
    src_profile: tuple[int, ...], tgt_profile: tuple[int, ...]
) -> tuple[MonotoneMap, ...]:
    """Active bases under which each source child receives at most as
    many target leaves as it has.

    An injective leaf map sends the target leaves over a fiber into its
    source child, so every morphism with one passes, and filtering the
    active enumeration loses nothing.  Active fibers partition the target
    children, so when the two leaf totals are equal "at most" forces
    "exactly": the fibers then cut the target profile into blocks
    matching the source profile.  Keying the scan by the two profiles
    amortizes it across all tree pairs sharing them.
    """
    tgt_prefix = [0]
    for c in tgt_profile:
        tgt_prefix.append(tgt_prefix[-1] + c)
    out = []
    for base in enumerate_delta_hom(len(src_profile), len(tgt_profile), True):
        values = base.values
        if all(
            tgt_prefix[values[i]] - tgt_prefix[values[i - 1]] <= src_profile[i - 1]
            for i in range(1, len(src_profile) + 1)
        ):
            out.append(base)
    return tuple(out)


@lru_cache(maxsize=None)
def _masked_rows(
    source: Tree, target: Tree, offset: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Injective-morphism rows shifted into the global leaf numbering,
    each paired with the bitmask of the leaves it uses."""
    out = []
    for row in _injective_hom_rows(source, target):
        shifted = tuple(v + offset for v in row)
        mask = 0
        for v in shifted:
            mask |= 1 << v
        out.append((shifted, mask))
    return tuple(out)


# the one choice of an empty row, padding short lists of lists
_NO_ROW = (((), 0),)


def _assemble_disjoint(
    masked_lists: list[tuple[tuple[tuple[int, ...], int], ...]],
) -> list[tuple[int, ...]]:
    """One row from each list, masks pairwise disjoint, concatenated, in
    lexicographic order of the choices.

    Depth first from a stack, dropping a prefix as soon as it collides,
    which the plain cartesian product cannot; one comprehension pairs the
    last two lists.  The stack holds at most one list's choices per level,
    so a prefix that dies on a later list costs no memory.
    """
    *heads, second, last = [_NO_ROW] * (2 - len(masked_lists)) + masked_lists
    out: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    while stack:
        prefix, acc, depth = stack.pop()
        if depth == len(heads):
            out.extend(
                [
                    prefix + row + row2
                    for row, mask in second
                    if not acc & mask
                    for row2, mask2 in last
                    if not (acc | mask) & mask2
                ]
            )
        else:
            stack.extend(
                reversed(
                    [
                        (prefix + row, acc | mask, depth + 1)
                        for row, mask in heads[depth]
                        if not acc & mask
                    ]
                )
            )
    return out


def _injective_rows(source: Tree, target: Tree) -> Iterator[tuple[int, ...]]:
    """Leaf rows of the active morphisms source -> target whose leaf map
    is injective, for a healthy target, in wreath enumeration order.

    A healthy target has a leaf above every vertex, so the map on every
    level of an active morphism into it is recoverable from its leaf
    row; rows therefore stand in for morphisms one to one.  The walk
    mirrors the wreath enumeration (one row per base and component
    choice) over the bases of _injective_bases, and raises if it ever
    produces a duplicate row, which would refute that correspondence.
    Nothing is cached at this level: decorated sources are visited
    once, so only _injective_hom_rows caches, for child pairs and
    healthy sources.
    """
    if source.height == 1:
        # rows of active maps [p] -> [q] are weakly increasing, so the
        # injective ones are exactly the strictly increasing q-tuples
        yield from combinations(range(1, source.rank + 1), target.rank)
        return
    offsets = tuple(accumulate((c.leaf_count for c in source.children), initial=0))
    seen_rows: set[tuple[int, ...]] = set()
    for base in _injective_bases(
        tuple(c.leaf_count for c in source.children),
        tuple(c.leaf_count for c in target.children),
    ):
        masked_lists = []
        for i, j in fiber_pairs(base):
            masked = _masked_rows(
                source.children[i - 1], target.children[j - 1], offsets[i - 1]
            )
            if not masked:
                break
            masked_lists.append(masked)
        else:
            for row in _assemble_disjoint(masked_lists):
                if row in seen_rows:
                    raise RuntimeError(
                        f"duplicate leaf row {row} for distinct morphisms "
                        f"{format_tree(source)} -> {format_tree(target)}; "
                        "rows do not determine morphisms here"
                    )
                seen_rows.add(row)
                yield row


@lru_cache(maxsize=None)
def _injective_hom_rows(source: Tree, target: Tree) -> tuple[tuple[int, ...], ...]:
    """The rows of _injective_rows, cached: child pairs and healthy
    sources recur across many trees."""
    return tuple(_injective_rows(source, target))


def _capped_rows(
    rows: Iterable[tuple[int, ...]], cap: int, source: Tree, target: Tree
) -> tuple[tuple[int, ...], ...]:
    """The rows as a tuple, raising ResourceCapError on the first row
    past ``cap``."""
    out = tuple(islice(rows, cap + 1))
    if len(out) > cap:
        raise ResourceCapError(
            f"row enumeration exceeded cap {cap} for "
            f"{format_tree(source)} -> {format_tree(target)}"
        )
    return out


def w_hom_rows(
    source: Tree, target: Tree, cap: int = DEFAULT_HOM_CAP
) -> tuple[tuple[int, ...], ...]:
    """Leaf rows of the leaf-bijective active morphisms source -> target.

    The target must be healthy, so rows determine morphisms (see
    _injective_rows).  Between trees with equal leaf counts an injective
    leaf map is a bijection, so these are exactly the injective rows;
    with unequal counts there are none.  Raises ResourceCapError once
    there are more than ``cap`` rows.  The verification suite checks the
    rows against the "w" enumeration, row for row, wherever the direct
    enumeration is affordable.
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
    return _capped_rows(_injective_rows(source, target), cap, source, target)


@lru_cache(maxsize=None)
def _injective_row_bound(source: Tree, target: Tree) -> int:
    """Closed-form upper bound on every list that listing the injective
    rows source -> target builds: the rows themselves, and each child
    pair's cached rows.

    At height 1 the rows are the q-subsets of the p source leaves.  Above
    it each base of _injective_bases adds the product of its child pairs'
    bounds (disjointness only removes rows); the walk lists child pairs up
    to the first empty one, and the scan up to the first zero bound.
    """
    if source.height == 1:
        return comb(source.rank, target.rank)
    rows = largest = 0
    for base in _injective_bases(
        tuple(c.leaf_count for c in source.children),
        tuple(c.leaf_count for c in target.children),
    ):
        term = 1
        for i, j in fiber_pairs(base):
            child = _injective_row_bound(
                source.children[i - 1], target.children[j - 1]
            )
            largest = max(largest, child)
            term *= child
            if term == 0:
                break
        rows += term
    return max(rows, largest)


def count_filtered_hom(
    source: Tree,
    target: Tree,
    morphism_filter: str = "all",
    cap: int = DEFAULT_HOM_CAP,
) -> int:
    """Size of the hom-set source -> target under a filter of
    enumerate_theta_hom, raising ResourceCapError past ``cap``.

    "all" and "active" are closed forms.  "w" into a healthy target counts
    leaf rows, which stand for its morphisms (see _injective_rows), once
    _injective_row_bound is within the cap.  "exit" needs healthy
    endpoints and a surjective leaf row (see classify_morphism), so it is
    0 unless 0 < source leaves <= target leaves, and with equal leaf
    counts a surjective row is a bijective one: the "w" count.  Every
    other count is the length of enumerate_theta_hom.
    """
    if source.height != target.height:
        raise ValueError("hom-sets only exist between trees of equal height")
    if morphism_filter in ("all", "active"):
        return count_theta_hom(source, target, morphism_filter == "active")
    if morphism_filter == "exit":
        if not (source.is_healthy and target.is_healthy
                and 0 < source.leaf_count <= target.leaf_count):
            return 0
        if source.leaf_count == target.leaf_count:
            morphism_filter = "w"
    if morphism_filter == "w" and target.is_healthy:
        if source.leaf_count != target.leaf_count:
            return 0
        projected = _injective_row_bound(source, target)
        if projected > cap:
            raise ResourceCapError(
                f"projected leaf-row list size {projected} exceeds cap {cap} "
                f"for {format_tree(source)} -> {format_tree(target)}"
            )
        return len(w_hom_rows(source, target, cap))
    return len(enumerate_theta_hom(source, target, morphism_filter, cap))


def verify_initiality_by_rows(
    tree: Tree, leaf_bound: int = 6, cap: int = DEFAULT_HOM_CAP
) -> InitialityReport:
    """Row-level counterpart of verify_initiality for larger hom-sets.

    Same claim, checked on leaf rows: transporting the rows of
    W(prune(tree), S) along the unit's bijective leaf row must land
    exactly on the rows of W(tree, S), for every healthy S of matching
    height and leaf count.  Rows determine morphisms into healthy trees
    (a duplicate anywhere raises inside the row enumeration), so set
    equality here is morphism-level existence and uniqueness of the
    factorization.  The suite cross-checks the two verifiers against
    each other wherever the direct one is affordable.
    """
    if tree.leaf_count > leaf_bound:
        raise ValueError(
            f"tree has {tree.leaf_count} leaves, above the bound {leaf_bound}"
        )
    result = prune(tree)
    alpha_row = leaf_row(result.morphism)
    targets_checked = 0
    rows_checked = 0
    for target in healthy_trees(tree.height, tree.leaf_count):
        targets_checked += 1
        direct = w_hom_rows(tree, target, cap)
        # the pruned side is healthy and recurs across many trees, so it
        # reads the cached rows; equal leaf counts make them its w rows
        factored = _capped_rows(
            _injective_hom_rows(result.pruned, target), cap, result.pruned, target
        )
        transported = {
            tuple(alpha_row[v - 1] for v in row) for row in factored
        }
        rows_checked += len(direct)
        if len(transported) != len(factored) or transported != set(direct):
            return InitialityReport(
                False,
                targets_checked,
                rows_checked,
                counterexample=(
                    f"tree={format_tree(tree)} target={format_tree(target)} "
                    f"rows: {len(direct)} direct vs {len(factored)} factored, "
                    f"{len(transported & set(direct))} shared"
                ),
            )
    return InitialityReport(True, targets_checked, rows_checked)


# ---------------------------------------------------------------------------
# tree families


def _compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """All ordered tuples of positive integers with the given sum."""
    if total == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(1, remaining + 1):
            extend(prefix + (part,), remaining - part)

    extend((), total)
    return tuple(out)


@lru_cache(maxsize=None)
def healthy_trees(height: int, leaf_count: int) -> tuple[Tree, ...]:
    """All healthy trees of the given height with exactly that many leaves."""
    if height < 1 or leaf_count < 0:
        raise ValueError("height must be >= 1 and leaf_count >= 0")
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


def morphism_from_json(doc: dict) -> ThetaMorphism:
    height = int(doc["height"])
    source = parse_tree(doc["source"], height)
    target = parse_tree(doc["target"], height)
    return _datum_from_json(source, target, doc["datum"])


def _datum_from_json(source: Tree, target: Tree, datum: dict) -> ThetaMorphism:
    base = parse_monotone(datum["base"], target.rank)
    if source.height == 1:
        if datum.get("components"):
            raise ValueError("height-1 morphisms carry no components")
        return ThetaMorphism(source, target, base)
    pairs = fiber_pairs(base)
    raw = datum.get("components", [])
    if len(raw) != len(pairs):
        raise ValueError(
            f"expected {len(pairs)} components, got {len(raw)} in morphism data"
        )
    comps = tuple(
        _datum_from_json(source.children[i - 1], target.children[j - 1], sub)
        for (i, j), sub in zip(pairs, raw)
    )
    return ThetaMorphism(source, target, base, comps)
