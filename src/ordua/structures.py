"""Finite posets and the ordered algebras living on them.

Carriers are indexed 0..n-1; subsets of a carrier are int bitmasks. All order
data is kept as bitmask rows (``up[i]`` = mask of elements above ``i``), which
keeps every operation exact and cheap for the carrier sizes this package
targets (bounded enumeration, default carrier bound 12 where exponential
searches are involved).
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from ordua.errors import (
    AntisymmetryViolation,
    CarrierMismatch,
    CarrierTooLarge,
    DuplicateLabel,
    InputFormatError,
    KindMismatch,
    UnknownLabel,
)

DEFAULT_ENUMERATION_BOUND = 12

KINDS = ("poset", "meet-semilattice", "dd-lattice", "distributive-lattice",
         "boolean-algebra")
KIND_RANK = {k: i for i, k in enumerate(KINDS)}

MORPHISM_KINDS = ("monotone", "flat", "meet-hom", "lattice-hom", "boolean-hom",
                  "disjunctive-hom")


def bits(mask: int):
    """Iterate the set bit positions of mask, ascending: a kept tuple below
    256 (rows of up to 8 points), a generator above."""
    return _BITS[mask] if mask < 256 else _bits(mask)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_carrier(n: int, bound: int | None, what: str) -> None:
    """Raise CarrierTooLarge before an enumeration over a carrier above bound."""
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if n > b:
        raise CarrierTooLarge(f"{what} needs carrier <= {b}, got {n}")


def transitive_closure(rows) -> list[int]:
    """The transitive closure of a relation given as bitmask rows (Warshall)."""
    rows = list(rows)
    for k in range(len(rows)):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | rows[k]
    return rows


# _SPREAD[v]: v with bit b moved to bit 8b; _SPREAD_BYTES[v] as 8 bytes
_SPREAD = [sum((v >> b & 1) << 8 * b for b in range(8)) for v in range(256)]
_SPREAD_BYTES = [v.to_bytes(8, "little") for v in _SPREAD]
_BITS = [tuple(_bits(v)) for v in range(256)]


def transpose(n: int, rows) -> list[int]:
    """The columns of a bit matrix whose rows are masks over n bits: column i
    is the mask of the rows that hold bit i. Rows go 8 at a time: each is
    spread a byte at a time (bit b to bit 8b) and shifted by its place k in
    the group, so byte i of the group's OR holds bit k of column i."""
    rows, width, cols = list(rows), (n + 7) // 8, [0] * n
    for g in range(0, len(rows), 8):
        acc = 0
        for k, row in enumerate(rows[g:g + 8]):
            spread = _SPREAD[row] if row < 256 else int.from_bytes(
                b"".join([_SPREAD_BYTES[v] for v in row.to_bytes(width, "little")]), "little")
            acc |= spread << k
        group = acc.to_bytes(8 * width, "little")[:n]
        cols = [c | b << g for c, b in zip(cols, group)] if g else list(group)
    return cols


def cover_pairs(up) -> list[tuple[int, int]]:
    """Pairs i <= j, i != j, of a preorder with up-rows up, with no third
    point k between them: i <= k <= j."""
    return [(i, j) for i, row in enumerate(up) for j in bits(row) if j != i
            and not any(up[k] >> j & 1 for k in bits(row & ~(1 << i | 1 << j)))]


def upper_sets(up, limit: int | None = None) -> list[int]:
    """All up-sets of the preorder with up-rows up, in ascending mask order;
    only the first limit of them if limit is given. Points are added from the
    highest index down: an up-set of p+1..n-1 extends without p iff it holds
    no point below p, and with p iff it holds every point above p. Restriction
    keeps mask order, so cutting each round to limit sets gives the first
    limit overall, in O(n * limit) work. A point p comparable to no point
    added so far is free: every up-set extends both ways, and as bit p lies
    below the bits of every member, u < u | 1 << p < the next member, so the
    round interleaves the two copies with no test and no sort.
    """
    family, seen = [0], []  # seen: (bit, row) of the points already added
    for p in reversed(range(len(up))):
        bit, row = 1 << p, up[p]
        above = row & -(bit << 1)
        below = 0
        for q, r in seen:
            if r & bit:
                below |= q
        seen.append((bit, row))
        if not below | above:
            both = family * 2
            both[::2] = family
            both[1::2] = [u | bit for u in family]
            family = both
        else:
            kept = [u for u in family if not u & below] if below else family
            family = kept + [u | bit for u in family if u & above == above]
            family.sort()  # merges the two ascending runs
        if limit is not None:
            del family[limit:]
    return family


def count_upper_sets(up) -> int:
    """The number of up-sets of the preorder with up-rows up, without
    listing them. An up-set of the points in rest either misses a point p
    of rest, and is then an up-set of rest without the points below p, or
    holds p, and is then the points above p joined with an up-set of rest
    without them. Counts are kept per rest, p has the most comparables in
    rest (leaving the least), and rests wait on a stack: no recursion limit.
    """
    dn, full = transpose(len(up), up), (1 << len(up)) - 1
    memo, stack = {0: 1}, [(full, None)]
    while stack:
        rest, parts = stack.pop()
        if parts is not None:
            memo[rest] = memo[parts[0]] + memo[parts[1]]
        elif rest not in memo:
            p = max(bits(rest), key=lambda x: ((up[x] | dn[x]) & rest).bit_count())
            parts = rest & ~dn[p], rest & ~up[p]
            stack += [(rest, parts)] + [(r, None) for r in parts if r not in memo]
    return memo[full]


class Subset:
    """A subset of an n-element carrier, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if not 0 <= mask < (1 << n):
            raise InputFormatError(f"mask {mask} out of range for carrier of size {n}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, indices) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise InputFormatError(f"index {i} out of range for carrier of size {n}")
            mask |= 1 << i
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Subset) and (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Subset({self.n}, {{{','.join(map(str, self.members()))}}})"


class SetFamily:
    """A family of subsets of a common carrier, canonically sorted by bitmask."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks) -> None:
        seen = sorted(set(map(int, masks)))
        if seen and not (0 <= seen[0] and seen[-1] < 1 << n):
            m = next(m for m in seen if not 0 <= m < 1 << n)
            raise InputFormatError(f"mask {m} out of range for carrier of size {n}")
        self.n = n
        self.masks = tuple(seen)

    @classmethod
    def _of_sorted(cls, n: int, masks) -> "SetFamily":
        """The family of masks, which must already be ascending, distinct and
        below 2^n (as upper_sets lists them): nothing is checked."""
        family = object.__new__(cls)
        family.n, family.masks = n, tuple(masks)
        return family

    def __iter__(self):
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, item) -> bool:
        mask = item.mask if isinstance(item, Subset) else int(item)
        return mask in self.masks

    def __eq__(self, other) -> bool:
        return isinstance(other, SetFamily) and (self.n, self.masks) == (other.n, other.masks)

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, {len(self.masks)} sets)"


class Poset:
    """A finite poset: labelled carrier plus reflexive-transitive-antisymmetric order."""

    __slots__ = ("labels", "up", "dn", "_index", "_birkhoff", "_meets")

    def __init__(self, labels, up) -> None:
        labels = tuple(str(x) for x in labels)
        up = tuple(int(m) for m in up)
        n = len(labels)
        self._index = _label_index(labels)
        if len(up) != n:
            raise InputFormatError("order rows do not match carrier size")
        full = (1 << n) - 1
        dn = [0] * n
        for i, row in enumerate(up):
            if not 0 <= row <= full:
                raise InputFormatError(f"order row {i} out of range")
            if not row >> i & 1:
                raise InputFormatError(f"order not reflexive at {labels[i]}")
            for j in bits(row):
                if up[j] & ~row:
                    raise InputFormatError(
                        f"order not transitive at {labels[i]} <= {labels[j]}")
                if i != j and up[j] >> i & 1:
                    raise AntisymmetryViolation(sorted([labels[i], labels[j]]))
                dn[j] |= 1 << i
        self.labels = labels
        self.up = up
        self.dn = tuple(dn)
        self._birkhoff = self._meets = None

    @classmethod
    def _of_order(cls, labels, up, dn, index) -> "Poset":
        """The poset on labels with up-rows up, down-rows dn and label index
        index, which must already be a partial order, its transpose and
        _label_index(labels) (posets on the same labels may share one):
        nothing is checked."""
        p = object.__new__(cls)
        p.labels, p.up, p.dn = tuple(labels), tuple(up), tuple(dn)
        p._index = index
        p._birkhoff = p._meets = None
        return p

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"unknown label {label!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @property
    def birkhoff(self):
        """The dlat spectrum of this order, a setlattices.Birkhoff (which is a
        spectra.Spectrum) on its join-irreducibles, built on first read and kept."""
        if self._birkhoff is None:
            from ordua.setlattices import Birkhoff  # it imports this module
            self._birkhoff = Birkhoff(self)
        return self._birkhoff

    def has_meets(self) -> bool:
        """Whether every pair has a meet, decided on first read and kept: true
        after a distributive Birkhoff verdict, else one _closed scan."""
        if self._meets is None:
            bk = self._birkhoff
            self._meets = (bk is not None and bk._distributive) or _closed(self.dn)
        return self._meets

    def dual(self) -> "Poset":
        return Poset(self.labels, self.dn)

    def maximal_mask(self, mask: int | None = None) -> int:
        mask = self.full if mask is None else mask
        return sum(1 << i for i in bits(mask) if self.up[i] & mask == 1 << i)

    def upper_set_masks(self, bound: int | None = None) -> list[int]:
        check_carrier(self.n, bound, "upper-set enumeration")
        return upper_sets(self.up)

    def lower_set_masks(self, bound: int | None = None) -> list[int]:
        check_carrier(self.n, bound, "lower-set enumeration")
        return upper_sets(self.dn)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poset)
                and self.labels == other.labels and self.up == other.up)

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)}, {len(cover_pairs(self.up))} covers)"


def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    """label -> index, for a nonempty carrier of distinct labels."""
    if not labels:
        raise InputFormatError("carrier must be nonempty")
    index = {x: i for i, x in enumerate(labels)}
    if len(index) != len(labels):
        dup = sorted(x for x in index if labels.count(x) > 1)
        raise DuplicateLabel(f"duplicate labels {dup}")
    return index


def validate_poset(labels, pairs) -> Poset:
    """Close a raw relation reflexively-transitively and certify it is a poset.

    Self-pairs are dropped as read; a repeated pair counts in and out alike
    and ORs a row again, so needs no dedupe. The Kahn pass (a topological
    order) pushes each point's down-row into its successors', and a reverse
    pass ORs each point's successors' up-rows into its own. Raises
    DuplicateLabel / UnknownLabel / AntisymmetryViolation (with a cycle witness).
    """
    labels = tuple(map(str, labels))
    index, n = _label_index(labels), len(labels)
    get = index.get
    nexts, indegree = [[] for _ in range(n)], [0] * n
    for a, b in pairs:
        try:  # a label is looked up as given, and by str() if not found there
            i, j = get(a), get(b)
        except TypeError:  # unhashable
            i = None
        if i is None or j is None:
            i, j = get(str(a)), get(str(b))
            if i is None or j is None:
                raise UnknownLabel(f"unknown label {str(a if i is None else b)!r} in order pair")
        if i != j:
            nexts[i].append(j)
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    dn = [1 << i for i in range(n)]
    for i in order:  # grows while it is read
        row = dn[i]
        for j in nexts[i]:
            dn[j] |= row
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        up = transitive_closure((1 << i) | sum({1 << j for j in r}) for i, r in enumerate(nexts))
        for i, row in enumerate(up):
            cycle = [x for x in bits(row) if up[x] >> i & 1]
            if len(cycle) > 1:
                raise AntisymmetryViolation(sorted(labels[x] for x in cycle))
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        row = up[i]
        for j in nexts[i]:
            row |= up[j]
        up[i] = row
    return Poset._of_order(labels, up, dn, index)


class Structure:
    """A poset together with whatever algebraic structure it supports.

    kind is the strongest of poset / meet-semilattice / dd-lattice /
    distributive-lattice / boolean-algebra that applies (classify computes
    it). The meet of a and b is the element whose down-row is dn[a] & dn[b],
    the join likewise on up-rows (None if there is no such element).
    """

    __slots__ = ("base", "kind", "top", "bottom", "complement", "_ops")

    def __init__(self, base: Poset, kind: str, top, bottom, complement):
        if kind not in KIND_RANK:
            raise InputFormatError(f"unknown kind {kind!r}")
        self.base = base
        self.kind = kind
        self.top = top
        self.bottom = bottom
        self.complement = complement
        self._ops = None

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.base.labels

    def leq(self, i: int, j: int) -> bool:
        return self.base.leq(i, j)

    def rank(self) -> int:
        return KIND_RANK[self.kind]

    def require(self, kind: str, op: str) -> None:
        if self.rank() < KIND_RANK[kind]:
            raise KindMismatch(f"{op} needs kind >= {kind}, structure is {self.kind}")

    def _lookups(self) -> tuple[dict, dict]:
        """{down-row: element} and {up-row: element}, built on first read and kept."""
        if self._ops is None:
            self._ops = ({r: x for x, r in enumerate(self.base.dn)},
                         {r: x for x, r in enumerate(self.base.up)})
        return self._ops

    def meet(self, a: int, b: int) -> int | None:
        return self._lookups()[0].get(self.base.dn[a] & self.base.dn[b])

    def join(self, a: int, b: int) -> int | None:
        return self._lookups()[1].get(self.base.up[a] & self.base.up[b])

    def with_kind(self, kind: str) -> "Structure":
        s = Structure(self.base, kind, self.top, self.bottom, self.complement)
        s._ops = self._ops
        return s

    def is_lattice(self) -> bool:
        # a finite poset with a top in which every pair has a meet has all joins
        return self.top is not None and self.bottom is not None and self.base.has_meets()

    def join_of(self, indices) -> int | None:
        """Join of a finite family; the empty join is the bottom (None if absent)."""
        acc, join = None, self.join
        for i in indices:
            if acc is None:
                acc = i
            else:
                acc = join(acc, i)
                if acc is None:
                    return None
        return self.bottom if acc is None else acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, Structure) and self.base == other.base
                and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.base, self.kind))

    def __repr__(self) -> str:
        return f"Structure({self.kind}, n={self.n})"


def _bounds(p: Poset) -> tuple[int | None, int | None]:
    full = p.full
    return (next((i for i, row in enumerate(p.dn) if row == full), None),
            next((i for i, row in enumerate(p.up) if row == full), None))


def _closed(rows) -> bool:
    """Whether the rows are closed under pairwise intersection: for down-rows,
    whether every pair has a meet; for up-rows, a join. Keeps nothing."""
    keys = set(rows)
    return all(a & b in keys for a, b in itertools.combinations(rows, 2))


def join_irreducible_mask(p: Poset) -> int:
    """Join-irreducibles of the lattice p: the x whose strict down-set is
    principal, a down-row (the bottom's is empty, so it is excluded)."""
    principal = set(p.dn)
    return sum(1 << x for x, r in enumerate(p.dn) if r ^ (1 << x) in principal)


def classify(p: Poset) -> Structure:
    """The strongest kind p supports, decided from its order rows (p is a
    distributive lattice iff the Birkhoff map is an isomorphism)."""
    top, bottom = _bounds(p)
    if top is not None and bottom is not None and p.birkhoff.is_distributive():
        c = p.birkhoff.basics
        # Boolean iff the join-irreducibles form an antichain, i.e. every
        # subset of them is a down-set
        if p.n != 1 << c[top].bit_count():
            return Structure(p, "distributive-lattice", top, bottom, None)
        element = {r: x for x, r in enumerate(c)}
        complement = tuple(element[c[top] ^ r] for r in c)
        return Structure(p, "boolean-algebra", top, bottom, complement)
    if top is None or not p.has_meets():
        return Structure(p, "poset", top, bottom, None)
    s = Structure(p, "meet-semilattice", top, bottom, None)
    # a finite meet-semilattice with a top is a lattice: it has a bottom and all joins
    return s.with_kind("dd-lattice") if _is_dd(s) else s


def _is_dd(s: Structure) -> bool:
    # Meets must distribute over the joins of disjoint pairs; finite
    # induction lifts the pair case to arbitrary finite families. s is a
    # lattice: c & (a | b) is (c & a) | (c & b) iff their up-rows agree.
    dn, up, (meet_at, join_at) = s.base.dn, s.base.up, s._lookups()
    zero = dn[s.bottom]
    for a, b in itertools.combinations(range(s.n), 2):
        if dn[a] & dn[b] != zero:
            continue
        da, db, dj = dn[a], dn[b], dn[join_at[up[a] & up[b]]]
        for dc in dn:
            if up[meet_at[dc & dj]] != up[meet_at[dc & da]] & up[meet_at[dc & db]]:
                return False
    return True


def _set_label(point_labels, mask: int) -> str:
    return "{" + ",".join(point_labels[i] for i in bits(mask)) + "}"


def inclusion_rows(masks) -> list[int]:
    """Inclusion order of a list of sets: row k has bit k2 iff masks[k] <= masks[k2]."""
    rows = []
    for m in masks:
        row = 0
        for k, m2 in enumerate(masks):
            if not m & ~m2:
                row |= 1 << k
        rows.append(row)
    return rows


def chain_structure(n: int) -> Structure:
    """The n-element chain 0 < 1 < ... < n-1 as a classified structure."""
    labels = [str(i) for i in range(n)]
    up = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
    return classify(Poset(labels, up))


def filters(s: Structure, bound: int | None = None) -> SetFamily:
    """All filters of s: nonempty, upward closed, down-directed subsets.

    A finite down-directed set holds a lower bound of all its members, which
    is its least element, so every filter is the principal up-set of that
    element; each principal up-set is a filter. bound still limits the
    carrier, as it does for the other enumerations.
    """
    check_carrier(s.n, bound, "filter enumeration")
    return SetFamily(s.n, s.base.up)


def prime_filters(s: Structure) -> SetFamily:
    """Prime filters of a distributive lattice: ^x for join-prime x (x != 0).

    Finite filters are principal, and in a finite distributive lattice the
    join-primes are exactly the join-irreducibles, so no subset enumeration is
    needed (the equivalences are covered by the property tests). They are the
    points of the dlat spectrum kept on s.base, whose basic sets are not built.
    """
    s.require("distributive-lattice", "prime_filters")
    return s.base.birkhoff.points


def disjunctive_filters(s: Structure) -> SetFamily:
    """Filters F such that any pairwise-disjoint family with join in F meets F.

    Filters are principal, F = ^x. The empty family has join 0, so x != 0.
    In a dd-lattice meets distribute over disjoint binary joins, so the join
    of the first k members of a disjoint family is disjoint from the next
    member; by induction on k, x is below a member of every disjoint family
    joining above it as soon as this holds for every disjoint pair.
    """
    s.require("dd-lattice", "disjunctive_filters")
    dn, up, join_at = s.base.dn, s.base.up, s._lookups()[1].get
    bad, zero = 1 << s.bottom, dn[s.bottom]
    for a, b in itertools.combinations(range(s.n), 2):
        if dn[a] & dn[b] == zero:
            bad |= dn[join_at(up[a] & up[b])] & ~(dn[a] | dn[b])
    return SetFamily(s.n, [up[x] for x in bits(s.base.full & ~bad)])


def indecomposable_elements(s: Structure) -> Subset:
    """Elements that are in every finite family joining to them.

    d is decomposable iff the join of its strict down-set is d; the bottom is
    decomposable via the empty family.
    """
    s.require("distributive-lattice", "indecomposable_elements")
    return Subset(s.n, sum([1 << x for x in s.base.birkhoff.elements]))


def _compact(mask: int, rows) -> bool:
    """Whether each class of the points of mask, two points in one class when
    their rows meet, has its union equal to one of its own rows. Row t holds
    t, and the rows of the points of mask lie in mask."""
    while mask:
        union, grown = rows[(mask & -mask).bit_length() - 1], 0
        while union != grown:
            grown = union
            for t in bits(mask):
                if rows[t] & grown:
                    union |= rows[t]
        if all(rows[t] != union for t in bits(union)):
            return False
        mask &= ~union
    return True


def disjunctively_compact_elements(s: Structure) -> Subset:
    """Elements whose covers all admit pairwise-disjoint refinements.

    In a finite distributive lattice the finest disjoint decomposition of d
    joins the classes of the join-irreducibles below d, two in one class when
    their meet is not the bottom, so d is disjunctively compact iff no cover
    avoids a class join: iff every class join is join-irreducible. On the
    Birkhoff sets c[x] = {t : j_t <= x}, whose rows c[j_t] meet when the
    meet of j_t and j_u is not the bottom, that is _compact(c[d], rows). The
    bottom is compact via the empty family.
    """
    s.require("distributive-lattice", "disjunctively_compact_elements")
    bk = s.base.birkhoff
    rows = bk.order
    return Subset(s.n, sum([1 << x for x, c in enumerate(bk.basics) if _compact(c, rows)]))


class StructureMorphism:
    """A carrier map between two structures with a declared morphism kind."""

    __slots__ = ("source", "target", "map", "kind")

    def __init__(self, source: Structure, target: Structure, map, kind: str):
        if kind not in MORPHISM_KINDS:
            raise InputFormatError(f"unknown morphism kind {kind!r}")
        map = tuple(int(v) for v in map)
        if len(map) != source.n or any(not 0 <= v < target.n for v in map):
            raise InputFormatError("morphism map does not fit the carriers")
        self.source = source
        self.target = target
        self.map = map
        self.kind = kind

    @classmethod
    def from_labels(cls, source: Structure, target: Structure, mapping: dict,
                    kind: str) -> "StructureMorphism":
        missing = [x for x in source.labels if x not in mapping]
        if missing:
            raise InputFormatError(f"map does not cover source elements {missing}")
        extra = [x for x in mapping if x not in source.labels]
        if extra:
            raise UnknownLabel(f"map mentions labels outside the source: {sorted(extra)}")
        m = [target.base.index(str(mapping[x])) for x in source.labels]
        return cls(source, target, m, kind)

    def __call__(self, i: int) -> int:
        return self.map[i]

    def __repr__(self) -> str:
        return f"StructureMorphism({self.kind}, {self.source.n}->{self.target.n})"


def compose(g: StructureMorphism, f: StructureMorphism, kind: str | None = None
            ) -> StructureMorphism:
    """g after f."""
    if f.target.base != g.source.base:
        raise CarrierMismatch("morphisms are not composable")
    return StructureMorphism(f.source, g.target,
                             [g.map[v] for v in f.map], kind or f.kind)


def _is_monotone(map, src_up, tgt_up) -> tuple[int, int] | None:
    """The first (i, j) with i <= j in the source up-rows but map[i] not <=
    map[j] in the target ones; None if the map is monotone."""
    for i, row in enumerate(src_up):
        for j in bits(row):
            if not tgt_up[map[i]] >> map[j] & 1:
                return (i, j)
    return None


def is_flat_map(f: StructureMorphism) -> tuple[bool, dict | None]:
    """Check flatness of a monotone map between posets.

    Flat means: (i) every source element is below some f(c); (ii) whenever
    d <= f(c) and d <= f(c'), some c'' <= c, c' has d <= f(c''). The witness
    names the violated condition and the elements realizing the violation.
    """
    src, tgt = f.source, f.target
    bad = _is_monotone(f.map, src.base.up, tgt.base.up)
    if bad is not None:
        i, j = bad
        return False, {"condition": "monotone",
                       "pair": (src.labels[i], src.labels[j])}
    for d in range(tgt.n):
        if not any(tgt.leq(d, f.map[c]) for c in range(src.n)):
            return False, {"condition": "covering", "d": tgt.labels[d]}
    for d in range(tgt.n):
        above = [c for c in range(src.n) if tgt.leq(d, f.map[c])]
        for c in above:
            for c2 in above:
                if not any(src.leq(c3, c) and src.leq(c3, c2) for c3 in above):
                    return False, {"condition": "directedness",
                                   "d": tgt.labels[d],
                                   "c": src.labels[c], "c'": src.labels[c2]}
    return True, None


_HOM_NEEDS = {
    "meet-hom": ("meet-semilattices", lambda s: s.rank() >= 1),
    "lattice-hom": ("bounded lattices", lambda s: s.is_lattice()),
    "boolean-hom": ("boolean algebras", lambda s: s.kind == "boolean-algebra"),
    "disjunctive-hom": ("dd-lattices", lambda s: s.rank() >= KIND_RANK["dd-lattice"]),
}


def _require_hom_kind(src: Structure, tgt: Structure, kind: str) -> None:
    """Raise KindMismatch unless the kinds of src and tgt support kind morphisms."""
    if kind in ("monotone", "flat"):
        return
    if kind not in _HOM_NEEDS:
        raise KindMismatch(f"unknown morphism kind {kind!r}")
    what, holds = _HOM_NEEDS[kind]
    if not (holds(src) and holds(tgt)):
        raise KindMismatch(f"{kind} needs {what}")


def _monotone_maps(src: Structure, tgt: Structure) -> list[tuple[int, ...]]:
    """All monotone maps src -> tgt as map tuples, in no fixed order. Partial
    maps grow by one source element per level, along a linear extension; an
    element only takes images in the AND of the target up-rows of the images
    of its lower covers, so every partial map built is monotone so far."""
    p, up, full = src.base, tgt.base.up, tgt.base.full
    # a strict lower element has a smaller down-row, also as an integer
    order = sorted(range(p.n), key=p.dn.__getitem__)
    pos = sorted(range(p.n), key=order.__getitem__)  # pos[x]: x's place in order
    maps = [()]
    for i in order:
        below = [pos[j] for j in bits(p.maximal_mask(p.dn[i] ^ 1 << i))]
        nxt = []
        for m in maps:
            allowed = full
            for k in below:
                allowed &= up[m[k]]
            nxt.extend([m + (v,) for v in bits(allowed)])
        maps = nxt
    if order == sorted(order):
        return maps
    return [tuple([m[k] for k in pos]) for m in maps]


def _law_test(src: Structure, tgt: Structure, kind: str):
    """The laws of kind (past _require_hom_kind) beyond monotonicity, as a test
    of monotone map tuples src -> tgt. Each law is rows[m[s]] == rows[m[a]] &
    rows[m[b]], with s the meet (target down-rows) or join (up-rows) of a
    source pair a, b, or a bound sent to a bound.
    Comparable pairs are left out: a monotone map keeps their meets and joins.
    """
    if kind == "monotone":
        return lambda m: True
    if kind == "flat":
        return lambda m: is_flat_map(StructureMorphism(src, tgt, m, "flat"))[0]
    dn, up, (meet_at, join_at) = src.base.dn, src.base.up, src._lookups()
    pairs = [(a, b) for a, b in itertools.combinations(range(src.n), 2)
             if not (up[a] >> b & 1 or up[b] >> a & 1)]
    bounds = [(src.top, tgt.top)]
    laws = [(meet_at.get(dn[a] & dn[b]), a, b, tgt.base.dn) for a, b in pairs]
    if kind != "meet-hom":
        bounds.append((src.bottom, tgt.bottom))
        if kind == "disjunctive-hom":
            # Meet-hom preserving joins of pairwise-disjoint families; the
            # empty family forces bottom to bottom, and pairs suffice by
            # induction.
            pairs = [(a, b) for a, b in pairs if meet_at.get(dn[a] & dn[b]) == src.bottom
                     and up[a] & up[b] in join_at]
        laws += [(join_at.get(up[a] & up[b]), a, b, tgt.base.up) for a, b in pairs]
    return lambda m: (all(m[x] == y for x, y in bounds)
                      and all(rows[m[s]] == rows[m[a]] & rows[m[b]] for s, a, b, rows in laws))


def is_homomorphism(f: StructureMorphism) -> bool:
    """True iff f satisfies the laws of its declared kind."""
    _require_hom_kind(f.source, f.target, f.kind)
    return (_is_monotone(f.map, f.source.base.up, f.target.base.up) is None
            and _law_test(f.source, f.target, f.kind)(f.map))


def _require_kind(map, src: Structure, tgt: Structure, kind: str) -> None:
    """Raise KindMismatch unless the kinds support a kind morphism and map is one."""
    if not is_homomorphism(StructureMorphism(src, tgt, map, kind)):
        raise KindMismatch(f"map is not a {kind}")


def enumerate_homomorphisms(src: Structure, tgt: Structure, kind: str,
                            bound: int | None = None) -> list[StructureMorphism]:
    """All morphisms src -> tgt of the given kind, sorted by map tuple.

    Boolean homs are enumerated through atom maps phi: atoms(tgt) ->
    atoms(src), x going to the element whose Birkhoff set is
    {k : phi(k) in c_src[x]}; other kinds filter the monotone maps, guarded
    by the bound on the full map space.
    """
    _require_hom_kind(src, tgt, kind)
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if kind == "boolean-hom":
        cs, ct = src.base.birkhoff.basics, tgt.base.birkhoff.basics
        ns, nt = cs[src.top].bit_count(), ct[tgt.top].bit_count()
        if ns ** nt > 4 ** b:
            raise CarrierTooLarge("boolean-hom atom-map space exceeds the bound")
        element = {c: y for y, c in enumerate(ct)}
        out = {tuple([element[sum([1 << k for k, a in enumerate(phi) if c >> a & 1])]
                      for c in cs])
               for phi in itertools.product(range(ns), repeat=nt)}
        return [StructureMorphism(src, tgt, m, kind) for m in sorted(out)]
    if tgt.n ** src.n > 4 ** b:
        raise CarrierTooLarge(
            f"map space {tgt.n}^{src.n} exceeds the enumeration bound")
    out = sorted(filter(_law_test(src, tgt, kind), _monotone_maps(src, tgt)))
    return [StructureMorphism(src, tgt, m, kind) for m in out]


def is_coherent_poset(p: Poset) -> tuple[bool, dict]:
    """Finite posets are always coherent; return the explicit witnesses.

    Witnesses: the maximal elements (a finite top-cover) and, per pair, the
    maximal common lower bounds (finite fc-limit families).
    """
    top_cover = Subset(p.n, p.maximal_mask())
    fc = {}
    for i in range(p.n):
        for j in range(i, p.n):
            common = p.dn[i] & p.dn[j]
            fc[(p.labels[i], p.labels[j])] = Subset(p.n, p.maximal_mask(common))
    return True, {"top-cover": top_cover, "fc-limits": fc}


def _refine_colors(p: Poset, orders: int = 0) -> list[int]:
    # Iterated neighborhood refinement with canonical renumbering, so color
    # ids are comparable across different posets. It stops once no class
    # splits or, given orders, once the class sizes allow at most that many
    # orderings within the classes: isomorphic posets stop together.
    n, dn, up = p.n, p.dn, p.up
    sigs, colors = [(dn[i].bit_count(), up[i].bit_count()) for i in range(n)], None
    while True:
        rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
        nxt = [rank[s] for s in sigs]
        if nxt == colors or prod(map(factorial, map(nxt.count, set(nxt)))) <= orders:
            return nxt
        colors = nxt
        sigs = [(colors[i],
                 tuple(sorted([colors[j] for j in bits(dn[i] ^ 1 << i)])),
                 tuple(sorted([colors[j] for j in bits(up[i] ^ 1 << i)])))
                for i in range(n)]


def order_isomorphism(p: Poset, q: Poset, pins: dict[int, int] | None = None
                      ) -> tuple[int, ...] | None:
    """An order isomorphism p -> q as an index tuple, or None.

    pins maps source indices to required target indices (used to check that a
    prescribed correspondence extends to an isomorphism).
    """
    sig_p, sig_q = _refine_colors(p), _refine_colors(q)
    if sorted(sig_p) != sorted(sig_q):  # also when p.n != q.n
        return None
    cands = [[j for j in range(q.n) if sig_q[j] == sig_p[i]] for i in range(p.n)]
    pins = pins or {}
    for i, j in pins.items():
        if j not in cands[i]:
            return None
        cands[i] = [j]
    order = sorted(range(p.n), key=lambda i: len(cands[i]))
    assign: list[int | None] = [None] * p.n
    pu, qu = p.up, q.up

    def backtrack(k: int) -> bool:
        if k == p.n:
            return True
        i = order[k]
        for j in cands[i]:  # a j placed already fails the test (q reflexive, p antisymmetric)
            for i2 in order[:k]:
                j2 = assign[i2]
                if pu[i] >> i2 & 1 != qu[j] >> j2 & 1 or pu[i2] >> i & 1 != qu[j2] >> j & 1:
                    break
            else:  # j agrees with every point placed so far
                assign[i] = j
                if backtrack(k + 1):
                    return True
        return False

    return tuple(assign) if backtrack(0) else None  # type: ignore[arg-type]


def structure_isomorphism(s: Structure, t: Structure,
                          pins: dict[int, int] | None = None) -> tuple[int, ...] | None:
    """Order isomorphism of the underlying posets (lattice ops are order-determined)."""
    return order_isomorphism(s.base, t.base, pins)


def _twin_groups(up, dn) -> list[list[int]]:
    """The points of the order with these rows, grouped by their strict
    up-row and strict down-row, each group ascending. Twins are
    incomparable, swapping two of them is an automorphism, and colour
    refinement gives them one colour."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (u, d) in enumerate(zip(up, dn)):
        groups.setdefault((u ^ 1 << i, d ^ 1 << i), []).append(i)
    return list(groups.values())


def canonical_form(p: Poset) -> tuple:
    """A complete isomorphism invariant, for deduplicating small posets.

    The refined colors are invariant and canonically numbered, so the least
    relabelled up-rows need only be sought among the relabellings listing
    the color classes in color order. Refinement stops once the orderings
    within the classes number at most 2n, where a round costs more than the
    orderings it would save. Reordering twins leaves the relabelled rows as
    they are, and an isomorphism maps twin groups to twin groups of the
    same size and color, so within each class only the orders of its twin
    groups are tried, each group kept together in ascending order. Equal
    keys mean isomorphic posets.
    """
    n = p.n
    colors = _refine_colors(p, 2 * n)
    classes: list[list[list[int]]] = [[] for _ in range(max(colors) + 1)]
    for group in _twin_groups(p.up, p.dn):
        classes[colors[group[0]]].append(group)
    ups = [tuple(bits(row)) for row in p.up]
    pos = [0] * n
    best = None
    for orders in itertools.product(*map(itertools.permutations, classes)):
        perm = [i for order in orders for group in order for i in group]
        for k, i in enumerate(perm):
            pos[i] = 1 << k
        key = tuple([sum([pos[j] for j in ups[i]]) for i in perm])
        if best is None or key < best:
            best = key
    return (n, tuple(sorted(colors)), best)
