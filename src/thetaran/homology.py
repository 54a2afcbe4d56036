"""Finite categories, their nerves, and integral homology via Smith form.

The bridge from combinatorics to topology: a finite category presented as
an object list, a morphism list, and a composition table has a normalized
nerve whose d-chains are composable strings of d non-identity morphisms.
The table is laid out one way, per arrow f: the composites g∘f for the
arrows g out of f's target, in arrow order (``composites``).  The build
fills it; ``validate`` and the nerve read it.  The nerve counts its
cells per degree before listing any, stops at its first empty degree,
and lists chains as indices, never tuples: a chain is its prefix plus
one arrow, and its faces follow from its prefix's by index arithmetic
(``nerve_chain_complex``).  Boundary matrices are
sparse integer columns, one ``{row: coefficient}`` dict per chain,
straight from the nerve, and one sparse elimination loop over those
columns gives their Smith normal form.  Homology reduces them
from the top degree down, and the unit pivots of each degree clear
columns of the one below (``homology_from_boundaries``).  Betti numbers
plus torsion coefficients drop out degree by degree.  Only the brute-force
oracles and tests build a dense view of a matrix.  ``validate`` checks
every category law in full.  Associativity is decided by Light's test:
the composable triples whose first arrow is irreducible, compared one
composable pair's tuple of composites at a time and never stored.

Two category builders connect back to the tree machinery.  ``w_hlt``
takes the unlabeled healthy height-n trees with k leaves and all active
leaf-bijective morphisms between them.  Into a healthy tree such a
morphism is fixed by its leaf row, so every arrow is stored as its row
and composition is composition of rows.  ``nord`` is the labeled cover
of ``w_hlt``: its objects are trees with leaves labeled by {1..k}, and
each w-arrow lifts to exactly one arrow out of each labeling of its
source.  Their classifying spaces have the homology of unordered and
ordered configuration spaces of k points in R^n, which is what the
acceptance fixtures check.

Everything is exact: arbitrary-precision integers, no floats, no modular
shortcuts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, repeat
from math import factorial, gcd

from .theta import check_cap, check_height, healthy_trees, w_hom_rows

# Nerve cells allowed in one build.  Measured peak RSS above the bare
# interpreter (~17 MB), full degree, Python 3.11: 0.5 KB per cell on
# nord(2,4) (12,288 cells) and w_hlt(2,5) (14,048 cells); 0.74 KB on
# w_hlt(3,4) (403,853 cells, 309 MB), 0.37 KB of it the nerve and the
# rest Smith-form fill-in left after clearing.  So a build at the cap can
# take about 0.4 GB.
# build_category counts a category's objects (0-cells) and k row entries
# per object before listing them, and its arrows (1-cells) as it lists
# them, against this cap.
DEFAULT_CHAIN_CAP = 500_000

# Composition-table entries (composable arrow pairs) allowed in one
# build, counted before the table is built.  Measured peak RSS of the
# build alone, one composites tuple per arrow with its row ids and
# row-pair memo, Python 3.11: 64 MB on w_hlt(2,7) (1,391,088 entries) and
# 139 MB on nord(4,4) (7,315,200), 0.05 and 0.02 KB per entry with the
# interpreter's 18 MB, so a table at the cap stays within about 0.5 GB.
COMPOSITION_CAP = 10_000_000


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


@dataclass(frozen=True)
class IntegerMatrix:
    """An integer matrix stored as sparse columns.

    ``columns[j]`` maps each row index to the nonzero entry in column j;
    zero entries are never stored.  ``entries`` is a dense row view for
    oracles and tests, built on first use and kept; the engine never
    reads it.
    """

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.cols:
            raise ValueError("column count mismatch")
        for column in self.columns:
            for i, v in column.items():
                if not 0 <= i < self.rows:
                    raise ValueError(f"row index {i} outside {self.rows} rows")
                if v == 0:
                    raise ValueError("sparse columns store nonzero entries only")

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> IntegerMatrix:
        rows = [tuple(int(v) for v in row) for row in data]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(rows[0])
        if any(len(row) != cols for row in rows):
            raise ValueError("column count mismatch")
        columns = tuple(
            {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(cols)
        )
        return cls(len(rows), cols, columns)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for i, v in column.items():
                dense[i][j] = v
        return tuple(tuple(row) for row in dense)

    def multiply(self, other: IntegerMatrix) -> IntegerMatrix:
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for column in other.columns:
            acc: dict[int, int] = {}
            for k, w in column.items():
                for i, v in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + v * w
            out.append({i: v for i, v in acc.items() if v})
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.columns)


@dataclass(frozen=True)
class SmithNormalForm:
    divisors: tuple[int, ...]  # positive, each dividing the next
    rank: int


def smith_normal_form(matrix: IntegerMatrix) -> SmithNormalForm:
    """Elementary divisors by one sparse elimination on the columns.

    A pivot p at (row r, column j) leaves |p| on the diagonal once column
    operations clear row r and row operations clear column j.  Unit pass:
    a ±1 pivot clears both at once.  Columns go shortest first, each
    pivoting on its unit entry in the shortest row, to keep fill-in low.

    Non-unit pass: the smallest entry left is the pivot.  Subtracting
    multiples of column j leaves remainders smaller than |p| in row r;
    once row r holds p alone, row operations reduce column j's other
    entries mod p and change no other column.  A nonzero remainder is a
    smaller pivot, so the step repeats until p is alone in both.

    Divisibility chain: diag(a, b) is equivalent to diag(gcd, lcm), so
    replacing (d_a, d_b) by their gcd and lcm for every pair a < b, in
    lexicographic order, keeps the diagonal equivalent to the matrix.
    For each prime, gcd takes the minimum and lcm the maximum of the two
    exponents, so this is a selection-sort network on every prime's
    exponents at once: they come out sorted, and d_a divides d_b for
    a < b.  Smith form is unique, so this chain is it.
    """
    return _smith_and_unit_rows(matrix, ())[0]


def _smith_and_unit_rows(
    matrix: IntegerMatrix, cleared
) -> tuple[SmithNormalForm, list[int]]:
    """``smith_normal_form`` of the matrix with the ``cleared`` columns
    made empty, and the rows of its unit pivots in pivot order."""
    columns = [{} if j in cleared else dict(column)
               for j, column in enumerate(matrix.columns)]
    holders: dict[int, set[int]] = defaultdict(set)  # row -> columns with it
    for j, column in enumerate(columns):
        for i in column:
            holders[i].add(j)
    unit_rows = []
    for j in sorted(range(len(columns)), key=lambda j: len(columns[j])):
        column = columns[j]
        units = [i for i, v in column.items() if v == 1 or v == -1]
        if not units:
            continue
        r = min(units, key=lambda i: len(holders[i]))
        unit = column.pop(r)
        for i in column:
            holders[i].discard(j)
        holders[r].discard(j)
        for other in holders.pop(r):
            _add_multiple(columns, holders, other, -unit * columns[other].pop(r), column)
        columns[j] = {}
        unit_rows.append(r)
    diagonal = []
    residual = [j for j, column in enumerate(columns) if column]
    while residual:
        _, r, j = min((abs(v), i, j) for j in residual for i, v in columns[j].items())
        while True:
            column = columns[j]
            p = column[r]
            for other in holders[r] - {j}:
                q = columns[other][r] // p
                if q:
                    _add_multiple(columns, holders, other, -q, column)
            if len(holders[r]) > 1:  # a remainder in row r: a smaller pivot
                j = min(holders[r] - {j}, key=lambda o: abs(columns[o][r]))
                continue
            for i in [i for i in column if i != r]:
                column[i] %= p
                if not column[i]:
                    del column[i]
                    holders[i].discard(j)
            if len(column) > 1:  # likewise a remainder in column j
                r = min((i for i in column if i != r), key=lambda i: abs(column[i]))
                continue
            diagonal.append(abs(p))
            del holders[r]
            columns[j] = {}
            break
        residual = [j for j in residual if columns[j]]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] // g * diagonal[b]
    divisors = (1,) * len(unit_rows) + tuple(diagonal)
    return SmithNormalForm(divisors, len(divisors)), unit_rows


def _add_multiple(columns, holders, other: int, factor: int, column) -> None:
    """``columns[other] += factor * column``, keeping ``holders`` in step."""
    target = columns[other]
    for i, v in column.items():
        value = target.get(i, 0) + factor * v
        if value:
            if i not in target:
                holders[i].add(other)
            target[i] = value
        else:
            del target[i]
            holders[i].discard(other)


# ---------------------------------------------------------------------------
# finite categories


@dataclass(frozen=True, eq=False)
class FiniteCategoryView:
    """A category as plain data: objects, arrows, and their composites.

    ``morphisms[m]`` is (source index, target index, label); ``identities``
    picks the identity arrow of each object.  ``composites[f]`` holds one
    slot per arrow g in ``outgoing[target f]``, in that order: the index of
    g∘f, or None where a hand-made table has no entry.  ``from_table``
    makes these lists from a dict {(g, f): g∘f}, and ``composition`` reads
    them back as that dict, read-only.
    """

    objects: tuple
    morphisms: tuple[tuple[int, int, object], ...]
    identities: tuple[int, ...]
    composites: tuple[tuple[int | None, ...], ...]

    @classmethod
    def from_table(cls, objects, morphisms, identities, table) -> FiniteCategoryView:
        """The view of a table {(g, f): g∘f}; pairs that do not compose are
        dropped, composable pairs without an entry get None."""
        out = _outgoing(len(objects), morphisms)
        return cls(objects, morphisms, identities, tuple(
            tuple(table.get((g, f)) for g in out[b])
            for f, (_, b, _) in enumerate(morphisms)
        ))

    @property
    def composition(self) -> Mapping[tuple[int, int], int]:
        """The table {(g, f): g∘f} over ``composites``, f by f and each g in
        ``outgoing`` order; its length is counted, never listed."""
        return _Composition(self)

    def is_identity(self, m: int) -> bool:
        return self.identities[self.morphisms[m][0]] == m

    @cached_property
    def max_hom_size(self) -> int:
        sizes = Counter((a, b) for a, b, _ in self.morphisms)
        return max(sizes.values(), default=0)

    @cached_property
    def outgoing(self) -> tuple[tuple[int, ...], ...]:
        """The arrows out of each object, in arrow order."""
        return _outgoing(len(self.objects), self.morphisms)

    @cached_property
    def position(self) -> tuple[int, ...]:
        """Each arrow's place in ``outgoing`` of its source: g∘f is
        ``composites[f][position[g]]``."""
        place = [0] * len(self.morphisms)
        for ms in self.outgoing:
            for i, m in enumerate(ms):
                place[m] = i
        return tuple(place)

    @cached_property
    def outgoing_non_identity(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(m for m in ms if not self.is_identity(m)) for ms in self.outgoing
        )

    def permuted(self, perm: tuple[int, ...]) -> FiniteCategoryView:
        """Relabel object positions: object i moves to position perm[i].

        Arrows keep their indices, so the arrows out of each object keep
        their order and ``composites`` carries over as it is."""
        moved_from = sorted(range(len(perm)), key=perm.__getitem__)
        return FiniteCategoryView(
            tuple(self.objects[i] for i in moved_from),
            tuple((perm[a], perm[b], label) for a, b, label in self.morphisms),
            tuple(self.identities[i] for i in moved_from),
            self.composites,
        )

    def validate(self, seed: int = 0) -> CategoryValidation:
        """Every category law on every arrow, pair and triple.

        The identity laws hold on every arrow, every composable pair has a
        composite with the right endpoints, and every composable triple
        h, g, f has h(gf) = (hg)f.  ``composites[f]`` lists the composites
        g∘f for g in ``outgoing[target f]``, in that order, None where an
        entry is missing.  Associativity at f is one list compare per
        composable pair (f, g): ``composites[gf]`` lists h(gf) for every h
        out of g's target, and ``composites[g]`` mapped through f's
        g' ↦ g'f lists (hg)f for the same h in the same order.  So each
        triple is compared inside a list compare and none is stored.

        Light's test (Clifford-Preston, *The Algebraic Theory of
        Semigroups* I, 1961, §1.2) compares only the f of a generating set,
        ``_associativity_domain``.  Once every pair has a composite, the
        arrows a with (xy)a = x(ya) for all composable x, y are closed
        under composition: for a, b among them,
        (xy)(ab) = ((xy)a)b = (x(ya))b = x((ya)b) = x(y(ab)).  The identity
        laws put every identity among them.  When the non-identity arrows
        form an acyclic graph on the objects, every non-identity arrow is a
        composite of irreducible ones, those that are no g∘f' of two
        non-identity arrows: by induction on the longest chain of objects
        between its endpoints, each factor's chain being shorter.  So
        checking the irreducible f decides associativity everywhere.
        Without the identity laws or with a cycle (a non-identity
        endomorphism included) every f is compared.  ``seed`` is accepted
        and never read: the benchmark's category workload still passes it.
        """
        arrows, out, units = self.morphisms, self.outgoing, self.identities
        composites, position = self.composites, self.position
        if any(arrows[m][:2] != (i, i) for i, m in enumerate(units)):
            return CategoryValidation(False, False, False)
        identities_ok = all(
            composites[units[a]][position[m]] == m == composites[m][position[units[b]]]
            for m, (a, b, _) in enumerate(arrows)
        )
        for f, (a, b, _) in enumerate(arrows):
            for g, gf in zip(out[b], composites[f]):
                if gf is None or arrows[gf][:2] != (a, arrows[g][1]):
                    return CategoryValidation(identities_ok, False, False)
        for f in self._associativity_domain(identities_ok):
            after_f, out_b = composites[f], out[arrows[f][1]]
            then_f = dict(zip(out_b, after_f)).__getitem__
            for g, gf in zip(out_b, after_f):
                if composites[gf] != tuple(map(then_f, composites[g])):
                    return CategoryValidation(identities_ok, True, False)
        return CategoryValidation(identities_ok, True, True)

    def _associativity_domain(self, identities_ok: bool):
        """The arrows f whose associativity ``validate`` compares, once
        every composable pair has a composite: the irreducible arrows when
        the identity laws hold and Kahn's topological sort orders every
        object along the non-identity arrows, else every arrow.  Each
        non-identity f is counted once in its own ``composites``, as
        id∘f = f, and once more for each g∘f' = f of two non-identity
        arrows."""
        arrows, out = self.morphisms, self.outgoing_non_identity
        if identities_ok:
            waiting = Counter(arrows[f][1] for ms in out for f in ms)
            ready = [x for x in range(len(out)) if not waiting[x]]
            for x in ready:
                for f in out[x]:
                    y = arrows[f][1]
                    waiting[y] -= 1
                    if not waiting[y]:
                        ready.append(y)
            if len(ready) == len(out):
                made = Counter()
                for ms in out:
                    for f in ms:
                        made.update(self.composites[f])
                return [f for ms in out for f in ms if made[f] == 1]
        return range(len(arrows))


class _Composition(Mapping):
    """A view's ``composites`` read as the table {(g, f): g∘f}."""

    def __init__(self, cat: FiniteCategoryView) -> None:
        self._cat = cat

    def __getitem__(self, key: tuple[int, int]) -> int:
        g, f = key
        arrows = self._cat.morphisms
        n = len(arrows)
        if 0 <= g < n and 0 <= f < n and arrows[g][0] == arrows[f][1]:
            gf = self._cat.composites[f][self._cat.position[g]]
            if gf is not None:
                return gf
        raise KeyError(key)

    def __iter__(self):
        out = self._cat.outgoing
        for f, (_, b, _) in enumerate(self._cat.morphisms):
            for g, gf in zip(out[b], self._cat.composites[f]):
                if gf is not None:
                    yield g, f

    def __len__(self) -> int:
        return sum(len(after) - after.count(None) for after in self._cat.composites)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)})"


def _outgoing(objects: int, morphisms) -> tuple[tuple[int, ...], ...]:
    """The arrows out of each of ``objects`` objects, in arrow order."""
    buckets: list[list[int]] = [[] for _ in range(objects)]
    for m, (a, _, _) in enumerate(morphisms):
        buckets[a].append(m)
    return tuple(tuple(ms) for ms in buckets)


@dataclass(frozen=True)
class CategoryValidation:
    identities_ok: bool
    composition_ok: bool
    associativity_ok: bool

    @property
    def ok(self) -> bool:
        return self.identities_ok and self.composition_ok and self.associativity_ok


def poset_category(elements, relations) -> FiniteCategoryView:
    """The category of a poset given by generating relations a <= b.

    The reflexive-transitive closure is computed here, so only covering
    relations need to be supplied.
    """
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    above = [{i} for i in range(len(elements))]  # above[i]: every j >= i
    for a, b in relations:
        above[index[a]].add(index[b])
    for k, above_k in enumerate(above):  # Warshall's transitive closure
        for above_i in above:
            if k in above_i:
                above_i |= above_k
    pairs = [(i, j) for i, js in enumerate(above) for j in sorted(js)]
    arrow = {pair: m for m, pair in enumerate(pairs)}
    morphisms = tuple((i, j, (elements[i], elements[j])) for i, j in pairs)
    identities = tuple(arrow[(i, i)] for i in range(len(elements)))
    composition = {
        (arrow[(j, k)], f): arrow[(i, k)]
        for (i, j), f in arrow.items()
        for k in above[j]
    }
    return FiniteCategoryView.from_table(elements, morphisms, identities, composition)


def chain_poset(length: int) -> FiniteCategoryView:
    """The totally ordered poset 0 < 1 < ... < length."""
    return poset_category(
        range(length + 1), [(i, i + 1) for i in range(length)]
    )


# ---------------------------------------------------------------------------
# tree categories


_KINDS = ("nord", "w_hlt")


def build_category(kind: str, n: int, k: int) -> FiniteCategoryView:
    """Configuration categories on healthy height-n trees with k leaves.

    Every arrow is ``(source, target, row)`` with ``row`` the leaf row of
    an active leaf-bijective morphism (``w_hom_rows``), which determines
    the morphism because every target is healthy.  Identities are the
    row (1..k), and "g after f" has the row ``f[v - 1] for v in g``.

    ``w_hlt``: unlabeled trees, all w-arrows.
    ``nord``: the labeled cover of ``w_hlt``, an object per tree and
    labeling of its leaves by {1..k}; a w-arrow out of a tree and a
    labeling ``lab`` of that tree give exactly one arrow, whose target
    labeling is ``lab[v - 1] for v in row``.  So nord has k! times as
    many arrows as w_hlt, at most one per object pair.

    Objects and arrows come in a fixed order (arrows by source, then
    target), so rebuilt categories are identical.  The table is written
    straight into ``composites``: for each arrow f in order, one tuple of
    the composites g∘f for g in ``outgoing[target f]``, found by source,
    target and row id; no pair is keyed by (g, f).

    Objects are the nerve's 0-cells and non-identity arrows its 1-cells,
    so both are held to ``DEFAULT_CHAIN_CAP``.  After the usage checks
    (kind, n >= 1, k >= 0, check_height) each count is capped before it is
    listed: the objects in closed form before any tree is built, then k
    times them as row entries (a k-entry row per arrow, at least one
    arrow per object), the ordered tree pairs (trees squared, exact within
    the object cap) against ``COMPOSITION_CAP`` before any row is listed,
    the arrows (k! per w-arrow in ``nord``) as each tree's rows are added,
    the composable pairs against ``COMPOSITION_CAP`` before the table,
    whose memo composes each distinct pair of row ids once: at most
    min(composable pairs, (k!)^2) entries, as rows permute 1..k.  A
    healthy height-n tree with k >= 1 leaves is a nonempty sequence of
    ones of height n-1, so H_n = H_(n-1)/(1 - H_(n-1)) for their
    generating functions, and from H_1 = x/(1-x), H_n = x/(1-nx): n^(k-1)
    trees (one for k = 0), each with k! labelings in ``nord``.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown category kind {kind!r}; pick from {_KINDS}")
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    check_height("height", n)
    name = f"{kind}({n},{k})"
    objects = _object_count(kind, n, k, DEFAULT_CHAIN_CAP)
    check_cap(objects, DEFAULT_CHAIN_CAP, f"{name} objects", exact=False)
    check_cap(k * objects, DEFAULT_CHAIN_CAP, f"{name} row entries")
    trees_squared = _object_count("w_hlt", n, k, DEFAULT_CHAIN_CAP) ** 2
    check_cap(trees_squared, COMPOSITION_CAP, f"{name} tree pairs")
    trees = healthy_trees(n, k)
    lifts = factorial(k) if kind == "nord" else 1
    rows_out = []
    arrow_count = 0
    for tree_a in trees:
        out = [(b, row) for b, tree_b in enumerate(trees)
               for row in w_hom_rows(tree_a, tree_b)]
        rows_out.append(out)
        arrow_count += lifts * len(out)
        check_cap(arrow_count, DEFAULT_CHAIN_CAP, f"{name} arrows", exact=False)
    # g after f for every f into b and g out of b; in nord each of the k!
    # labelings of b has the in- and out-degree of b in w_hlt
    incoming = Counter(b for out in rows_out for b, _ in out)
    pairs = lifts * sum(incoming[b] * len(out) for b, out in enumerate(rows_out))
    check_cap(pairs, COMPOSITION_CAP, f"{name} composable pairs")
    if kind == "w_hlt":
        objects: tuple = trees
        arrows = [(a, b, row) for a, out in enumerate(rows_out) for b, row in out]
    else:
        labelings = tuple(permutations(range(1, k + 1)))
        position = {lab: i for i, lab in enumerate(labelings)}
        objects = tuple((tree, lab) for tree in trees for lab in labelings)
        size = len(labelings)
        arrows = []
        for a, (_, lab) in enumerate(objects):
            arrows.extend(sorted(
                (a, b * size + position[tuple(lab[v - 1] for v in row)], row)
                for b, row in rows_out[a // size]
            ))
    # each distinct row as an int, at most k! of them, and each arrow keyed
    # by the int (source, target, row id) in mixed radix: no two share a key
    row_id: dict[tuple, int] = {}
    ids = [row_id.setdefault(row, len(row_id)) for _, _, row in arrows]
    rows, width, count = list(row_id), len(row_id), len(objects)
    index = {(a * count + b) * width + r: i
             for i, ((a, b, _), r) in enumerate(zip(arrows, ids))}
    unit = row_id[tuple(range(1, k + 1))]
    identities = tuple(index[(a * count + a) * width + unit] for a in range(count))
    # composable pairs only, f by f and each g in outgoing order; a
    # composite that is no arrow raises KeyError in row_id or index
    out, composites, memo = _outgoing(count, arrows), [], {}
    for f, (a, b, _) in enumerate(arrows):
        first, source = rows[ids[f]], a * count
        after = memo.setdefault(ids[f], {})
        slots = []
        for g in out[b]:
            second = ids[g]
            row = after.get(second)
            if row is None:
                row = after[second] = row_id[tuple(first[v - 1] for v in rows[second])]
            slots.append(index[(source + arrows[g][1]) * width + row])
        composites.append(tuple(slots))
    return FiniteCategoryView(objects, tuple(arrows), identities, tuple(composites))


def _object_count(kind: str, n: int, k: int, bound: int) -> int:
    """build_category's objects, n^(k-1) (1 for k = 0) times k! in
    ``nord``, or bound + 1 as soon as the product passes ``bound``."""
    value = 1
    for factor in chain(repeat(n, k - 1) if n > 1 else (),
                        range(2, k + 1) if kind == "nord" else ()):
        value *= factor
        if value > bound:
            return bound + 1
    return value


# ---------------------------------------------------------------------------
# nerves and homology


def nerve_chain_complex(
    cat: FiniteCategoryView, max_dim: int
) -> list[IntegerMatrix]:
    """Boundary matrices of the normalized nerve, degrees 1..max_dim.

    A d-chain is a string of d composable non-identity arrows; the i-th
    face composes at the i-th joint, and faces that produce an identity
    vanish in the normalized complex.  The composite at a joint g after f
    is ``composites[f][position[g]]``.

    Chains are indices, never tuples.  A d-chain x is its prefix p, a
    (d-1)-chain, plus its last arrow m, and the chains extending p are
    listed together from ``starts[p]``, one per non-identity arrow out of
    p's end in ``outgoing_non_identity`` order; so x is
    ``starts[p] + rank[m]``, m's place in that list.  Face i < d-1 of x is
    face i of p extended by m (None, degenerate, where that one is), face
    d-1 is p's prefix extended by m after p's last arrow (None if that is
    an identity), and face d is p.  Each degree keeps its chains' faces
    until the next is built, and a column is its faces with signs
    +1, -1, ... in face order, equal faces summed.

    The cells of every degree are counted first, by tallying chains per
    end object, and held to ``DEFAULT_CHAIN_CAP`` (the degrees 0..max_dim,
    then the cells through each dimension) before any chain is listed.
    A d-chain holds a (d-1)-chain, so the nerve stops at its first empty
    degree: that one gets a matrix with no columns, and each degree above
    it one shared 0 x 0 matrix.
    """
    check_cap(max_dim + 1, DEFAULT_CHAIN_CAP, f"nerve degrees 0..{max_dim}")
    arrows, out = cat.morphisms, cat.outgoing_non_identity
    targets = [b for _, b, _ in arrows]
    ending = [1] * len(cat.objects)  # ending[a]: top-degree chains ending at a
    sizes = [len(ending)]
    total = sizes[0]
    while len(sizes) <= max_dim:
        step = [0] * len(ending)
        for ms, here in zip(out, ending):
            for m in ms:
                step[targets[m]] += here
        count = sum(step)
        total += count
        check_cap(total, DEFAULT_CHAIN_CAP, f"nerve cells in dimensions 0..{len(sizes)}")
        if not count:
            break
        sizes.append(count)
        ending = step
    top = len(sizes) - 1
    matrices = []
    if top:
        # rank[m]: m's place among the non-identity arrows out of its
        # source, None for an identity
        rank: list[int | None] = [None] * len(arrows)
        starts: list[int] = []  # starts[y]: the first chain extending y
        faces: list[tuple] = []
        lasts: list[int] = []
        columns: list[dict[int, int]] = []
        for a, ms in enumerate(out):
            starts.append(len(lasts))
            for r, m in enumerate(ms):
                rank[m] = r
                b = targets[m]
                faces.append((b, a))
                columns.append({b: 1, a: -1} if a != b else {})
            lasts.extend(ms)
        matrices.append(IntegerMatrix(sizes[0], sizes[1], tuple(columns)))
        # one int object per chain index, shared by every column that reads it
        index = list(range(max(sizes)))
    if top > 1:
        # joint[f][r]: the rank of the r-th arrow out of f's target after
        # f; read only from degree 2 on, so ∂_1 needs no composite
        composites, place = cat.composites, cat.position
        joint: list = [None] * len(arrows)
        for ms in out:
            for f in ms:
                after = composites[f]
                try:
                    joint[f] = [rank[after[place[g]]] for g in out[targets[f]]]
                except TypeError:  # rank[None]: the table has no g∘f
                    g = next(g for g in out[targets[f]] if after[place[g]] is None)
                    raise ValueError(f"arrow {g} ({arrows[g][2]!r}) after arrow {f} "
                                     f"({arrows[f][2]!r}) has no composite") from None
    for d in range(2, top + 1):
        signs = (1, -1) * d
        next_starts: list[int] = []
        next_faces: list[tuple] = []
        next_lasts: list[int] = []
        for p, face, last in zip(index, faces, lasts):
            next_starts.append(len(next_lasts))
            ms = out[targets[last]]
            if not ms:
                continue
            size = len(ms)
            lanes: list = [repeat(None, size) if f is None
                           else index[starts[f]:starts[f] + size] for f in face[:-1]]
            base = starts[face[-1]]
            lanes.append([None if t is None else index[base + t] for t in joint[last]])
            lanes.append(repeat(p, size))
            next_faces.extend(zip(*lanes))
            next_lasts.extend(ms)
        columns = [dict(zip(face, signs)) for face in next_faces]
        for x in [x for x, column in enumerate(columns)
                  if len(column) <= d or None in column]:
            columns[x] = _summed_column(next_faces[x], signs)
        matrices.append(IntegerMatrix(sizes[d - 1], sizes[d], tuple(columns)))
        starts, faces, lasts = next_starts, next_faces, next_lasts
    if top < max_dim:
        matrices.append(IntegerMatrix(sizes[top], 0, ()))
        matrices.extend(repeat(IntegerMatrix(0, 0, ()), max_dim - top - 1))
    return matrices


def _summed_column(faces: tuple, signs: tuple[int, ...]) -> dict[int, int]:
    """A boundary column from faces that repeat or vanish (None): each
    face's signs summed, keys in first-face order, zeros dropped."""
    coeffs: dict[int, int] = {}
    for face, sign in zip(faces, signs):
        if face is not None:
            coeffs[face] = coeffs.get(face, 0) + sign
    return {i: v for i, v in coeffs.items() if v}


@dataclass(frozen=True)
class HomologyResult:
    """Integral homology through ``max_degree``.

    ``betti[d]`` and ``torsion[d]`` describe H_d; torsion coefficients are
    each > 1 and form a divisibility chain.  ``chain_sizes`` lists the
    nerve basis sizes for dimensions 0..max_degree+1, the range actually
    built.
    """

    max_degree: int
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    chain_sizes: tuple[int, ...]

    def group(self, d: int) -> str:
        parts = []
        if self.betti[d] == 1:
            parts.append("Z")
        elif self.betti[d] > 1:
            parts.append(f"Z^{self.betti[d]}")
        parts.extend(f"Z/{t}" for t in self.torsion[d])
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        inner = ", ".join(self.group(d) for d in range(self.max_degree + 1))
        return f"({inner})"


def homology_of_category(
    cat: FiniteCategoryView, max_degree: int = 3
) -> HomologyResult:
    """H_0..H_max_degree of the classifying space of the category.

    Builds the nerve, capped as in nerve_chain_complex, one dimension
    past max_degree so the top requested degree sees its incoming boundary.
    """
    matrices = nerve_chain_complex(cat, max_degree + 1)
    return homology_from_boundaries(matrices, max_degree)


def homology_from_boundaries(
    matrices: list[IntegerMatrix], max_degree: int
) -> HomologyResult:
    """Homology of a chain complex given as boundaries for degrees 1..D+1.

    ``matrices[d]`` is the boundary out of degree d+1, so each one's
    columns must be the next one's rows; a mismatch raises ``ValueError``
    naming the degree.  The matrices must form a complex, ∂_d ∂_(d+1) = 0;
    that is not checked here (the harness checks it on the full matrices).

    Clearing (Chen-Kerber, "Persistent homology computation with a
    twist", 2011): the boundaries are reduced from the top degree down,
    and each unit pivot row of ∂_(d+1), a d-cell, has its column of ∂_d
    made empty before ∂_d is reduced.  This changes no rank and no
    elementary divisor.  At pivot time the pivot column is an integer
    combination of the columns of ∂_(d+1), with ±1 at its pivot row and 0
    at every earlier pivot row.  So those columns restricted to the pivot
    rows form a unimodular triangular matrix, and ∂_d ∂_(d+1) = 0 writes
    each cleared column of ∂_d as an integer combination of the kept
    ones: column operations empty it without touching the rest.  A
    boundary with no columns, as the nerve gives every degree past its
    top, has rank 0 and clears nothing, so it is never reduced.

    A negative Betti number raises ``AssertionError``.  No Euler check:
    b_d = c_d - r_d - r_(d+1) telescopes, so the cells and Betti numbers
    agree on it by construction (the harness checks it against oracles).
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if len(matrices) < max_degree + 1:
        raise ValueError(
            f"need boundaries through degree {max_degree + 1}, got {len(matrices)}"
        )
    for d, (lower, upper) in enumerate(zip(matrices, matrices[1:]), start=1):
        if upper.rows != lower.cols:
            raise ValueError(
                f"boundary into degree {d} has {upper.rows} rows, but the "
                f"boundary out of degree {d} has {lower.cols} columns"
            )
    sizes = [matrices[0].rows] + [m.cols for m in matrices]
    forms = []
    cleared: list[int] = []  # unit pivot rows of the boundary above
    no_columns = SmithNormalForm((), 0)
    for matrix in reversed(matrices):
        if matrix.cols:
            form, cleared = _smith_and_unit_rows(matrix, set(cleared))
        else:
            form, cleared = no_columns, []
        forms.append(form)
    forms.reverse()
    ranks = [0] + [f.rank for f in forms]  # ranks[d] = rank of boundary from degree d
    betti = []
    torsion = []
    for d in range(max_degree + 1):
        betti_d = sizes[d] - ranks[d] - ranks[d + 1]
        if betti_d < 0:
            raise AssertionError("negative Betti number; the complex is broken")
        betti.append(betti_d)
        torsion.append(tuple(v for v in forms[d].divisors if v > 1))
    return HomologyResult(
        max_degree, tuple(betti), tuple(torsion), tuple(sizes)
    )
