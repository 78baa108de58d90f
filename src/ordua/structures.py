"""Finite posets and the ordered algebras living on them.

Carriers are indexed 0..n-1; subsets of a carrier are int bitmasks. All order
data is kept as bitmask rows (``up[i]`` = mask of elements above ``i``), which
keeps every operation exact and cheap for the carrier sizes this package
targets (bounded enumeration, default carrier bound 12 where exponential
searches are involved).
"""

from __future__ import annotations

import itertools

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
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


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
        return popcount(self.mask)

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
        seen = sorted(set(int(m) for m in masks))
        for m in seen:
            if not 0 <= m < (1 << n):
                raise InputFormatError(f"mask {m} out of range for carrier of size {n}")
        self.n = n
        self.masks = tuple(seen)

    def subsets(self) -> list[Subset]:
        return [Subset(self.n, m) for m in self.masks]

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

    __slots__ = ("labels", "up", "dn", "_index")

    def __init__(self, labels, up) -> None:
        labels = tuple(str(x) for x in labels)
        up = tuple(int(m) for m in up)
        n = len(labels)
        if n == 0:
            raise InputFormatError("carrier must be nonempty")
        if len(set(labels)) != n:
            dup = sorted(x for x in set(labels) if labels.count(x) > 1)
            raise DuplicateLabel(f"duplicate labels {dup}")
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
        self._index = {x: i for i, x in enumerate(labels)}

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

    def pairs(self) -> list[tuple[str, str]]:
        return [(self.labels[i], self.labels[j])
                for i in range(self.n) for j in bits(self.up[i])]

    def dual(self) -> "Poset":
        return Poset(self.labels, self.dn)

    def maximal_mask(self, mask: int | None = None) -> int:
        mask = self.full if mask is None else mask
        out = 0
        for i in bits(mask):
            if self.up[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def minimal_mask(self, mask: int | None = None) -> int:
        mask = self.full if mask is None else mask
        out = 0
        for i in bits(mask):
            if self.dn[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def is_upper(self, mask: int) -> bool:
        return all(not (self.up[i] & ~mask) for i in bits(mask))

    def is_lower(self, mask: int) -> bool:
        return all(not (self.dn[i] & ~mask) for i in bits(mask))

    def upper_set_masks(self, bound: int | None = None) -> list[int]:
        b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
        if self.n > b:
            raise CarrierTooLarge(
                f"upper-set enumeration needs carrier <= {b}, got {self.n}")
        return [m for m in range(1 << self.n) if self.is_upper(m)]

    def lower_set_masks(self, bound: int | None = None) -> list[int]:
        b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
        if self.n > b:
            raise CarrierTooLarge(
                f"lower-set enumeration needs carrier <= {b}, got {self.n}")
        return [m for m in range(1 << self.n) if self.is_lower(m)]

    def hasse_pairs(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) with i < j and nothing strictly between."""
        out = []
        for i in range(self.n):
            strict = self.up[i] ^ (1 << i)
            for j in bits(strict):
                between = strict & self.dn[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poset)
                and self.labels == other.labels and self.up == other.up)

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        return f"Poset({list(self.labels)}, {len(self.hasse_pairs())} covers)"


def validate_poset(labels, pairs) -> Poset:
    """Close a raw relation reflexively-transitively and certify it is a poset.

    Raises DuplicateLabel / UnknownLabel / AntisymmetryViolation (with a cycle
    witness) as appropriate.
    """
    labels = [str(x) for x in labels]
    if len(set(labels)) != len(labels):
        dup = sorted(x for x in set(labels) if labels.count(x) > 1)
        raise DuplicateLabel(f"duplicate labels {dup}")
    if not labels:
        raise InputFormatError("carrier must be nonempty")
    index = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        a, b = str(a), str(b)
        if a not in index:
            raise UnknownLabel(f"unknown label {a!r} in order pair")
        if b not in index:
            raise UnknownLabel(f"unknown label {b!r} in order pair")
        up[index[a]] |= 1 << index[b]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                cycle = sorted(labels[x] for x in bits(up[i])
                               if up[x] >> i & 1 and up[i] >> x & 1)
                raise AntisymmetryViolation(cycle)
    return Poset(labels, up)


class Structure:
    """A poset together with whatever algebraic structure it supports.

    meet/join are full n*n tables with None at undefined entries; kind is the
    strongest of poset / meet-semilattice / dd-lattice / distributive-lattice /
    boolean-algebra that applies (classify computes it).
    """

    __slots__ = ("base", "kind", "meet", "join", "top", "bottom", "complement")

    def __init__(self, base: Poset, kind: str, meet, join, top, bottom, complement):
        if kind not in KIND_RANK:
            raise InputFormatError(f"unknown kind {kind!r}")
        self.base = base
        self.kind = kind
        self.meet = meet
        self.join = join
        self.top = top
        self.bottom = bottom
        self.complement = complement

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

    def with_kind(self, kind: str) -> "Structure":
        return Structure(self.base, kind, self.meet, self.join, self.top,
                         self.bottom, self.complement)

    def is_lattice(self) -> bool:
        return (self.top is not None and self.bottom is not None
                and all(v is not None for row in self.meet for v in row)
                and all(v is not None for row in self.join for v in row))

    def join_of(self, indices) -> int | None:
        """Join of a finite family; the empty join is the bottom (None if absent)."""
        acc = None
        for i in indices:
            if acc is None:
                acc = i
            else:
                acc = self.join[acc][i]
                if acc is None:
                    return None
        return self.bottom if acc is None else acc

    def meet_of(self, indices) -> int | None:
        acc = None
        for i in indices:
            if acc is None:
                acc = i
            else:
                acc = self.meet[acc][i]
                if acc is None:
                    return None
        return self.top if acc is None else acc

    def atoms(self) -> list[int]:
        if self.bottom is None:
            raise KindMismatch("atoms need a bottom element")
        b = 1 << self.bottom
        return [i for i in range(self.n)
                if i != self.bottom and self.base.dn[i] == b | (1 << i)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Structure) and self.base == other.base
                and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.base, self.kind))

    def __repr__(self) -> str:
        return f"Structure({self.kind}, n={self.n})"


def _bounds(p: Poset) -> tuple[int | None, int | None]:
    top = bottom = None
    for i in range(p.n):
        if p.dn[i] == p.full:
            top = i
        if p.up[i] == p.full:
            bottom = i
    return top, bottom


def _glb_table(p: Poset, rows) -> list[list[int | None]]:
    # rows = p.dn gives meets; rows = p.up gives joins.
    n = p.n
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cands = rows[i] & rows[j]
            best = None
            for m in bits(cands):
                if not cands & ~rows[m]:
                    best = m
                    break
            table[i][j] = table[j][i] = best
    return table


def join_irreducible_mask(s: Structure) -> int:
    """Elements that are not the join of their strict down-sets (bottom excluded)."""
    out = 0
    for x in range(s.n):
        strict = s.base.dn[x] ^ (1 << x)
        if s.join_of(bits(strict)) != x:
            out |= 1 << x
    return out


def _is_distributive(s_base: Poset, meet, join, bottom) -> bool:
    # Birkhoff: x -> {join-irreducibles <= x} always preserves meets and is
    # injective; it preserves joins iff the lattice is distributive.
    n = s_base.n
    ji = [0] * n
    for x in range(n):
        strict = s_base.dn[x] ^ (1 << x)
        acc = None
        for i in bits(strict):
            acc = i if acc is None else join[acc][i]
        folded = bottom if acc is None else acc
        if folded != x:
            for y in range(n):
                if s_base.leq(x, y):
                    ji[y] |= 1 << x
    for a in range(n):
        for b in range(a + 1, n):
            if ji[join[a][b]] != ji[a] | ji[b]:
                return False
    return True


def classify(p: Poset) -> Structure:
    """Compute the operation tables of p and the strongest kind they support."""
    top, bottom = _bounds(p)
    meet = _glb_table(p, p.dn)
    join = _glb_table(p, p.up)
    n = p.n
    meets_total = all(v is not None for row in meet for v in row)
    joins_total = all(v is not None for row in join for v in row)
    is_msl = top is not None and meets_total
    is_lat = is_msl and bottom is not None and joins_total
    kind = "poset"
    complement = None
    if is_msl:
        kind = "meet-semilattice"
    if is_lat and _is_distributive(p, meet, join, bottom):
        kind = "distributive-lattice"
        comp = []
        for i in range(n):
            found = None
            for c in range(n):
                if meet[i][c] == bottom and join[i][c] == top:
                    found = c
                    break
            comp.append(found)
        if all(c is not None for c in comp):
            kind = "boolean-algebra"
            complement = tuple(comp)
    elif is_msl and bottom is not None and _is_dd(p, meet, join, bottom):
        kind = "dd-lattice"
    return Structure(p, kind, meet, join, top, bottom, complement)


def _is_dd(p: Poset, meet, join, bottom) -> bool:
    # Disjoint pairs must have joins, and meets must distribute over them;
    # finite induction lifts the pair case to arbitrary finite families.
    n = p.n
    for a in range(n):
        for b in range(a, n):
            if meet[a][b] != bottom:
                continue
            j = join[a][b]
            if j is None:
                return False
            for c in range(n):
                ca, cb = meet[c][a], meet[c][b]
                if meet[c][j] != join[ca][cb]:
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


def structure_from_closed_masks(point_labels, masks, element_labels=None) -> Structure:
    """Structure on a family of subsets closed under union and intersection.

    The family must contain the empty set and the full set; meets/joins are
    then set intersection/union, the lattice is distributive (a sublattice of a
    powerset), and it is Boolean exactly when closed under set complement.
    """
    point_labels = tuple(str(x) for x in point_labels)
    masks = tuple(sorted(set(int(m) for m in masks)))
    full = (1 << len(point_labels)) - 1
    idx = {m: i for i, m in enumerate(masks)}
    if 0 not in idx or full not in idx:
        raise InputFormatError("closed family must contain the empty and full sets")
    n = len(masks)
    up = inclusion_rows(masks)
    meet: list[list[int | None]] = [[None] * n for _ in range(n)]
    join: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, mi in enumerate(masks):
        for j in range(i, n):
            mj = masks[j]
            try:
                meet[i][j] = meet[j][i] = idx[mi & mj]
                join[i][j] = join[j][i] = idx[mi | mj]
            except KeyError:
                raise InputFormatError("set family is not closed under union/intersection")
    comp = tuple(idx.get(full ^ m) for m in masks)
    kind = "boolean-algebra" if all(c is not None for c in comp) else "distributive-lattice"
    if element_labels is None:
        element_labels = [_set_label(point_labels, m) for m in masks]
    base = Poset(element_labels, up)
    return Structure(base, kind, meet, join, idx[full], idx[0],
                     comp if kind == "boolean-algebra" else None)


def powerset_structure(k: int, point_labels=None) -> Structure:
    if point_labels is None:
        point_labels = [f"p{i}" for i in range(k)]
    return structure_from_closed_masks(point_labels, range(1 << k))


def chain_structure(n: int) -> Structure:
    """The n-element chain 0 < 1 < ... < n-1 as a classified structure."""
    labels = [str(i) for i in range(n)]
    up = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
    return classify(Poset(labels, up))


def filter_point_label(s: Structure, mask: int) -> str:
    """Label for a spectrum point: '^x' by least element when principal."""
    least = s.base.minimal_mask(mask)
    if popcount(least) == 1:
        return "^" + s.labels[least.bit_length() - 1]
    return "{" + ",".join(s.labels[i] for i in bits(mask)) + "}"


def filters(s: Structure, bound: int | None = None) -> SetFamily:
    """All filters of s: nonempty, upward closed, down-directed subsets.

    A finite down-directed set holds a lower bound of all its members, which
    is its least element, so every filter is the principal up-set of that
    element; each principal up-set is a filter. bound still limits the
    carrier, as it does for the other enumerations.
    """
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if s.n > b:
        raise CarrierTooLarge(f"filter enumeration needs carrier <= {b}, got {s.n}")
    return SetFamily(s.n, s.base.up)


def prime_filters(s: Structure) -> SetFamily:
    """Prime filters of a distributive lattice: ^x for join-prime x (x != 0).

    Finite filters are principal, and in a finite distributive lattice the
    join-primes are exactly the join-irreducibles, so no subset enumeration is
    needed (the equivalences are covered by the property tests).
    """
    s.require("distributive-lattice", "prime_filters")
    ji = join_irreducible_mask(s)
    return SetFamily(s.n, [s.base.up[x] for x in bits(ji)])


def disjunctive_filters(s: Structure) -> SetFamily:
    """Filters F such that any pairwise-disjoint family with join in F meets F.

    Filters are principal, F = ^x. The empty family has join 0, so x != 0.
    In a dd-lattice meets distribute over disjoint binary joins, so the join
    of the first k members of a disjoint family is disjoint from the next
    member; by induction on k, x is below a member of every disjoint family
    joining above it as soon as this holds for every disjoint pair.
    """
    s.require("dd-lattice", "disjunctive_filters")
    bot = s.bottom
    pairs = [(a, b, s.join[a][b]) for a in range(s.n) for b in range(a + 1, s.n)
             if bot not in (a, b) and s.meet[a][b] == bot]
    out = []
    for x in range(s.n):
        if x != bot and all(not s.leq(x, j) or s.leq(x, a) or s.leq(x, b)
                            for a, b, j in pairs):
            out.append(s.base.up[x])
    return SetFamily(s.n, out)


def indecomposable_elements(s: Structure) -> Subset:
    """Elements that are in every finite family joining to them.

    d is decomposable iff the join of its strict down-set is d; the bottom is
    decomposable via the empty family.
    """
    s.require("distributive-lattice", "indecomposable_elements")
    return Subset(s.n, join_irreducible_mask(s))


def _components_below(s: Structure, d: int) -> list[int]:
    """Joins of the connectivity classes (under meet != 0) of join-irreducibles <= d."""
    ji = [x for x in bits(join_irreducible_mask(s) & s.base.dn[d])]
    comps: list[int] = []
    unseen = set(ji)
    while unseen:
        seed = unseen.pop()
        block = [seed]
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            linked = [w for w in unseen if s.meet[v][w] != s.bottom]
            for w in linked:
                unseen.remove(w)
                block.append(w)
                frontier.append(w)
        comps.append(s.join_of(block))
    return comps


def disjunctively_compact_elements(s: Structure) -> Subset:
    """Elements whose covers all admit pairwise-disjoint refinements.

    In a finite distributive lattice the finest disjoint decomposition of d
    joins the connectivity classes of the join-irreducibles below d, so d is
    disjunctively compact iff no class-join c can be avoided by a cover:
    iff join{x <= d : not c <= x} < d for every class c. The bottom is compact
    via the empty family.
    """
    s.require("distributive-lattice", "disjunctively_compact_elements")
    out = 0
    for d in range(s.n):
        compact = True
        for c in _components_below(s, d):
            avoid = [x for x in bits(s.base.dn[d]) if not s.leq(c, x)]
            if s.join_of(avoid) == d:
                compact = False
                break
        if compact:
            out |= 1 << d
    return Subset(s.n, out)


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


def _is_monotone(map, src: Structure, tgt: Structure) -> tuple[int, int] | None:
    for i in range(src.n):
        for j in bits(src.base.up[i]):
            if not tgt.leq(map[i], map[j]):
                return (i, j)
    return None


def is_flat_map(f: StructureMorphism) -> tuple[bool, dict | None]:
    """Check flatness of a monotone map between posets.

    Flat means: (i) every source element is below some f(c); (ii) whenever
    d <= f(c) and d <= f(c'), some c'' <= c, c' has d <= f(c''). The witness
    names the violated condition and the elements realizing the violation.
    """
    src, tgt = f.source, f.target
    bad = _is_monotone(f.map, src, tgt)
    if bad is not None:
        i, j = bad
        return False, {"condition": "monotone",
                       "pair": (src.labels[i], src.labels[j])}
    for d in range(tgt.n):
        if not any(tgt.leq(d, f.map[c]) for c in range(src.n)):
            return False, {"condition": "covering", "d": tgt.labels[d]}
    for d in range(tgt.n):
        for c in range(src.n):
            if not tgt.leq(d, f.map[c]):
                continue
            for c2 in range(src.n):
                if not tgt.leq(d, f.map[c2]):
                    continue
                ok = any(src.leq(c3, c) and src.leq(c3, c2) and tgt.leq(d, f.map[c3])
                         for c3 in range(src.n))
                if not ok:
                    return False, {"condition": "directedness",
                                   "d": tgt.labels[d],
                                   "c": src.labels[c], "c'": src.labels[c2]}
    return True, None


def _hom_compatible(src: Structure, tgt: Structure, kind: str) -> str | None:
    """None if the kinds support this morphism kind, else the reason."""
    if kind in ("monotone", "flat"):
        return None
    if kind == "meet-hom":
        if src.rank() < 1 or tgt.rank() < 1:
            return "meet-hom needs meet-semilattices"
        return None
    if kind == "lattice-hom":
        if not (src.is_lattice() and tgt.is_lattice()):
            return "lattice-hom needs bounded lattices"
        return None
    if kind == "boolean-hom":
        if src.kind != "boolean-algebra" or tgt.kind != "boolean-algebra":
            return "boolean-hom needs boolean algebras"
        return None
    if kind == "disjunctive-hom":
        if src.rank() < KIND_RANK["dd-lattice"] or tgt.rank() < KIND_RANK["dd-lattice"]:
            return "disjunctive-hom needs dd-lattices"
        return None
    return f"unknown morphism kind {kind!r}"


def _satisfies_kind(map, src: Structure, tgt: Structure, kind: str) -> bool:
    if _is_monotone(map, src, tgt) is not None:
        return False
    if kind == "monotone":
        return True
    if kind == "flat":
        ok, _ = is_flat_map(StructureMorphism(src, tgt, map, "flat"))
        return ok
    n = src.n
    if kind in ("meet-hom", "lattice-hom", "boolean-hom", "disjunctive-hom"):
        if map[src.top] != tgt.top:
            return False
        for a in range(n):
            for b in range(a + 1, n):
                if map[src.meet[a][b]] != tgt.meet[map[a]][map[b]]:
                    return False
    if kind == "meet-hom":
        return True
    if kind in ("lattice-hom", "boolean-hom"):
        if map[src.bottom] != tgt.bottom:
            return False
        for a in range(n):
            for b in range(a + 1, n):
                if map[src.join[a][b]] != tgt.join[map[a]][map[b]]:
                    return False
        if kind == "boolean-hom":
            for a in range(n):
                if map[src.complement[a]] != tgt.complement[map[a]]:
                    return False
        return True
    if kind == "disjunctive-hom":
        # Meet-hom preserving joins of pairwise-disjoint families; the empty
        # family forces bottom to bottom, and pairs suffice by induction.
        if map[src.bottom] != tgt.bottom:
            return False
        for a in range(n):
            for b in range(a + 1, n):
                if src.meet[a][b] != src.bottom:
                    continue
                j = src.join[a][b]
                if j is None:
                    continue
                if tgt.join[map[a]][map[b]] != map[j]:
                    return False
        return True
    raise InputFormatError(f"unknown morphism kind {kind!r}")


def is_homomorphism(f: StructureMorphism) -> bool:
    """True iff f satisfies the laws of its declared kind."""
    reason = _hom_compatible(f.source, f.target, f.kind)
    if reason is not None:
        raise KindMismatch(reason)
    return _satisfies_kind(f.map, f.source, f.target, f.kind)


def enumerate_homomorphisms(src: Structure, tgt: Structure, kind: str,
                            bound: int | None = None) -> list[StructureMorphism]:
    """All morphisms src -> tgt of the given kind, sorted by map tuple.

    Boolean homs are enumerated through atom maps (h <-> atoms(tgt) ->
    atoms(src)); other kinds filter the full map space, guarded by the bound.
    """
    reason = _hom_compatible(src, tgt, kind)
    if reason is not None:
        raise KindMismatch(reason)
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if kind == "boolean-hom":
        src_atoms = src.atoms()
        tgt_atoms = tgt.atoms()
        if len(src_atoms) ** len(tgt_atoms) > 4 ** b:
            raise CarrierTooLarge("boolean-hom atom-map space exceeds the bound")
        out = []
        for phi in itertools.product(src_atoms, repeat=len(tgt_atoms)):
            m = []
            for x in range(src.n):
                below = [t for t, a in zip(tgt_atoms, phi) if src.leq(a, x)]
                m.append(tgt.join_of(below))
            out.append(tuple(m))
        return [StructureMorphism(src, tgt, m, kind) for m in sorted(set(out))]
    if tgt.n ** src.n > 4 ** b:
        raise CarrierTooLarge(
            f"map space {tgt.n}^{src.n} exceeds the enumeration bound")
    out = [m for m in itertools.product(range(tgt.n), repeat=src.n)
           if _satisfies_kind(m, src, tgt, kind)]
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


def _refine_colors(p: Poset) -> list[int]:
    # Iterated neighborhood refinement with canonical renumbering, so color
    # ids are comparable across different posets.
    colors = [(popcount(p.dn[i]), popcount(p.up[i])) for i in range(p.n)]
    order = sorted(set(colors))
    colors = [order.index(c) for c in colors]
    for _ in range(p.n):
        sigs = [(colors[i],
                 tuple(sorted(colors[j] for j in bits(p.dn[i]) if j != i)),
                 tuple(sorted(colors[j] for j in bits(p.up[i]) if j != i)))
                for i in range(p.n)]
        order = sorted(set(sigs))
        nxt = [order.index(s) for s in sigs]
        if len(set(nxt)) == len(set(colors)):
            colors = nxt
            break
        colors = nxt
    return colors


def order_isomorphism(p: Poset, q: Poset, pins: dict[int, int] | None = None
                      ) -> tuple[int, ...] | None:
    """An order isomorphism p -> q as an index tuple, or None.

    pins maps source indices to required target indices (used to check that a
    prescribed correspondence extends to an isomorphism).
    """
    if p.n != q.n:
        return None
    sig_p, sig_q = _refine_colors(p), _refine_colors(q)
    if sorted(sig_p) != sorted(sig_q):
        return None
    cands = [[j for j in range(q.n) if sig_q[j] == sig_p[i]] for i in range(p.n)]
    pins = pins or {}
    for i, j in pins.items():
        if j not in cands[i]:
            return None
        cands[i] = [j]
    order = sorted(range(p.n), key=lambda i: len(cands[i]))
    assign: list[int | None] = [None] * p.n
    used = [False] * q.n

    def backtrack(k: int) -> bool:
        if k == p.n:
            return True
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = assign[i2]
                if p.leq(i, i2) != q.leq(j, j2) or p.leq(i2, i) != q.leq(j2, j):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                assign[i] = None
                used[j] = False
        return False

    if not backtrack(0):
        return None
    return tuple(assign)  # type: ignore[arg-type]


def structure_isomorphism(s: Structure, t: Structure,
                          pins: dict[int, int] | None = None) -> tuple[int, ...] | None:
    """Order isomorphism of the underlying posets (lattice ops are order-determined)."""
    return order_isomorphism(s.base, t.base, pins)


def canonical_form(p: Poset) -> tuple:
    """A permutation-invariant certificate, for deduplicating small posets."""
    n = p.n
    best = None
    for perm in itertools.permutations(range(n)):
        rows = []
        for i in range(n):
            row = 0
            for j in bits(p.up[perm[i]]):
                row |= 1 << perm.index(j)
            rows.append(row)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return (n, best)
