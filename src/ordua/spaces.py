"""Finite topological spaces, preorders, and Priestley-style checks.

A finite family of sets containing the empty and full sets is a topology iff
it equals the family of all unions of its minimal opens, which is what the
FiniteSpace constructor verifies. Finite spaces are therefore interchangeable
with preorders (Alexandrov correspondence); both directions are provided.
"""

from __future__ import annotations

from ordua.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InputFormatError,
    NotPriestley,
    NotT0,
)
from ordua.structures import (
    DEFAULT_ENUMERATION_BOUND,
    Poset,
    SetFamily,
    Structure,
    bits,
    structure_from_closed_masks,
)


class Preorder:
    """A reflexive transitive relation on a labelled carrier (bitmask rows)."""

    __slots__ = ("labels", "up")

    def __init__(self, labels, up) -> None:
        labels = tuple(str(x) for x in labels)
        up = tuple(int(m) for m in up)
        n = len(labels)
        if len(set(labels)) != n or len(up) != n:
            raise InputFormatError("bad preorder carrier")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if not 0 <= row <= full or not row >> i & 1:
                raise InputFormatError(f"preorder row {i} not reflexive/in range")
            for j in bits(row):
                if up[j] & ~row:
                    raise InputFormatError(f"preorder not transitive at {labels[i]}")
        self.labels = labels
        self.up = up

    @classmethod
    def from_poset(cls, p: Poset) -> "Preorder":
        return cls(p.labels, p.up)

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def is_antisymmetric(self) -> bool:
        return all(not (j != i and self.up[j] >> i & 1)
                   for i in range(self.n) for j in bits(self.up[i]))

    def antisymmetry_failure(self) -> tuple[int, int] | None:
        for i in range(self.n):
            for j in bits(self.up[i]):
                if j != i and self.up[j] >> i & 1:
                    return (i, j)
        return None

    def to_poset(self) -> Poset:
        return Poset(self.labels, self.up)

    def is_upper(self, mask: int) -> bool:
        return all(not (self.up[i] & ~mask) for i in bits(mask))

    def upper_masks(self, bound: int | None = None) -> list[int]:
        b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
        if self.n > b:
            raise CarrierTooLarge(
                f"upper-set enumeration needs carrier <= {b}, got {self.n}")
        return [m for m in range(1 << self.n) if self.is_upper(m)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Preorder)
                and self.labels == other.labels and self.up == other.up)

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        return f"Preorder(n={self.n})"


class FiniteSpace:
    """A finite topological space: labelled points plus the family of opens."""

    __slots__ = ("labels", "opens", "minimal")

    def __init__(self, labels, opens) -> None:
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise InputFormatError("duplicate point labels")
        family = opens if isinstance(opens, SetFamily) else SetFamily(n, opens)
        if family.n != n:
            raise CarrierMismatch("opens do not live on the point carrier")
        full = (1 << n) - 1
        masks = set(family.masks)
        if 0 not in masks or full not in masks:
            raise InputFormatError("a topology contains the empty and full sets")
        minimal = []
        for p in range(n):
            m = full
            for o in family.masks:
                if o >> p & 1:
                    m &= o
            minimal.append(m)
        for o in family.masks:
            u = 0
            for p in bits(o):
                if minimal[p] not in masks:
                    raise InputFormatError("family is not closed under intersections")
                u |= minimal[p]
            if u != o:
                raise InputFormatError("family is not closed under unions")
        # every open is a union of minimal opens, so closure under adding one
        # minimal open at a time is closure under all unions
        if not all(o | m in masks for o in family.masks for m in minimal):
            raise InputFormatError("family is not closed under unions")
        self.labels = labels
        self.opens = family
        self.minimal = tuple(minimal)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return mask in set(self.opens.masks)

    def clopen_masks(self) -> list[int]:
        masks = set(self.opens.masks)
        return [m for m in self.opens.masks if self.full ^ m in masks]

    def is_t0(self) -> bool:
        return len(set(self.minimal)) == self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteSpace)
                and self.labels == other.labels and self.opens == other.opens)

    def __hash__(self) -> int:
        return hash((self.labels, self.opens))

    def __repr__(self) -> str:
        return f"FiniteSpace(n={self.n}, {len(self.opens)} opens)"


class PreorderedSpace:
    """A finite space with a preorder on the same carrier."""

    __slots__ = ("space", "preorder")

    def __init__(self, space: FiniteSpace, preorder: Preorder) -> None:
        if space.labels != preorder.labels:
            raise CarrierMismatch("space and preorder carriers differ")
        self.space = space
        self.preorder = preorder

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def n(self) -> int:
        return self.space.n

    def clopen_upper_masks(self) -> list[int]:
        return [m for m in self.space.clopen_masks() if self.preorder.is_upper(m)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PreorderedSpace)
                and self.space == other.space and self.preorder == other.preorder)

    def __hash__(self) -> int:
        return hash((self.space, self.preorder))

    def __repr__(self) -> str:
        return f"PreorderedSpace(n={self.n})"


class PriestleyReport:
    """Outcome of the Priestley axioms on a preordered space."""

    __slots__ = ("is_compact", "is_partial_order", "separation_ok",
                 "failing_pair", "clopen_uppers")

    def __init__(self, is_compact, is_partial_order, separation_ok,
                 failing_pair, clopen_uppers: SetFamily):
        self.is_compact = is_compact
        self.is_partial_order = is_partial_order
        self.separation_ok = separation_ok
        self.failing_pair = failing_pair
        self.clopen_uppers = clopen_uppers

    @property
    def ok(self) -> bool:
        return self.is_compact and self.is_partial_order and self.separation_ok

    def to_dict(self) -> dict:
        return {
            "is-compact": self.is_compact,
            "is-partial-order": self.is_partial_order,
            "separation-ok": self.separation_ok,
            "is-priestley": self.ok,
            "failing-pair": list(self.failing_pair) if self.failing_pair else None,
            "clopen-upper-count": len(self.clopen_uppers),
        }


def generate_topology(labels, subbasis: SetFamily, bound: int | None = None
                      ) -> FiniteSpace:
    """The topology generated by a subbasis (all unions of finite intersections)."""
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if subbasis.n != n:
        raise CarrierMismatch("subbasis does not live on the point carrier")
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if n > b:
        raise CarrierTooLarge(f"topology generation needs carrier <= {b}, got {n}")
    full = (1 << n) - 1
    minimal = []
    for p in range(n):
        m = full
        for s in subbasis.masks:
            if s >> p & 1:
                m &= s
        minimal.append(m)
    opens = [m for m in range(1 << n)
             if all(not (minimal[p] & ~m) for p in bits(m))]
    return FiniteSpace(labels, opens)


def patch_space(labels, family: SetFamily, bound: int | None = None) -> FiniteSpace:
    """The patch topology: generated by the family together with its complements."""
    full = (1 << family.n) - 1
    enriched = SetFamily(family.n, list(family.masks) + [full ^ m for m in family.masks])
    return generate_topology(labels, enriched, bound)


def specialization_preorder(space: FiniteSpace) -> Preorder:
    """x <= y iff every open containing x contains y (rows are minimal opens)."""
    return Preorder(space.labels, space.minimal)


def alexandrov_space(pre: Preorder, bound: int | None = None) -> FiniteSpace:
    """The Alexandrov topology: all upper sets of the preorder."""
    return FiniteSpace(pre.labels, pre.upper_masks(bound))


def upper_open_reduct(ps: PreorderedSpace) -> FiniteSpace:
    """Keep only the opens that are upper for the order."""
    opens = [m for m in ps.space.opens.masks if ps.preorder.is_upper(m)]
    return FiniteSpace(ps.labels, opens)


def preorder_coreflection(ps: PreorderedSpace) -> Preorder:
    """Intersect the order with the specialization preorder of the topology."""
    spec = specialization_preorder(ps.space)
    rows = [ps.preorder.up[i] & spec.up[i] for i in range(ps.n)]
    return Preorder(ps.labels, rows)


def priestley_boolean_algebra(labels, family: SetFamily,
                              bound: int | None = None) -> Structure:
    """The Boolean subalgebra of the powerset generated by the family.

    Its elements are exactly the unions of the membership-pattern cells of the
    family, so the carrier has size 2^(number of cells).
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if family.n != n:
        raise CarrierMismatch("family does not live on the point carrier")
    b = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    cells: dict[tuple, int] = {}
    for p in range(n):
        pattern = tuple(m >> p & 1 for m in family.masks)
        cells[pattern] = cells.get(pattern, 0) | 1 << p
    cell_masks = sorted(cells.values())
    if len(cell_masks) > b:
        raise CarrierTooLarge(
            f"pattern algebra would have 2^{len(cell_masks)} elements")
    masks = []
    for combo in range(1 << len(cell_masks)):
        m = 0
        for i in bits(combo):
            m |= cell_masks[i]
        masks.append(m)
    return structure_from_closed_masks(labels, masks)


def priestley_check(ps: PreorderedSpace) -> PriestleyReport:
    """Check the Priestley axioms: compactness (automatic for finite spaces),
    a partial order, and separation of x !<= y by a clopen upper set."""
    cyc = ps.preorder.antisymmetry_failure()
    if cyc is not None:
        i, j = cyc
        return PriestleyReport(True, False, False,
                               (ps.labels[i], ps.labels[j]),
                               SetFamily(ps.n, ps.clopen_upper_masks()))
    uppers = ps.clopen_upper_masks()
    for x in range(ps.n):
        for y in range(ps.n):
            if x == y or ps.preorder.leq(x, y):
                continue
            if not any(u >> x & 1 and not u >> y & 1 for u in uppers):
                return PriestleyReport(True, True, False,
                                       (ps.labels[x], ps.labels[y]),
                                       SetFamily(ps.n, uppers))
    return PriestleyReport(True, True, True, None, SetFamily(ps.n, uppers))


def weakly_indecomposable_clopen_uppers(ps: PreorderedSpace) -> SetFamily:
    """Clopen upper sets that are not the union of their proper clopen-upper subsets.

    The empty set is the empty union, hence decomposable.
    """
    report = priestley_check(ps)
    if not report.ok:
        raise NotPriestley(f"not a Priestley space (pair {report.failing_pair})")
    uppers = ps.clopen_upper_masks()
    out = []
    for u in uppers:
        union = 0
        for v in uppers:
            if v != u and not v & ~u:
                union |= v
        if union != u:
            out.append(u)
    return SetFamily(ps.n, out)


def _family_order_rows(n: int, family: SetFamily) -> tuple[int, ...]:
    full = (1 << n) - 1
    rows = []
    for x in range(n):
        row = full
        for s in family.masks:
            if s >> x & 1:
                row &= s
        rows.append(row)
    return tuple(rows)


def check_patch_characterization(ps: PreorderedSpace, family: SetFamily,
                                 bound: int | None = None
                                 ) -> tuple[bool, bool, dict | None]:
    """Both sides of the patch-order characterization, with a witness.

    Left side: the topology is the family's patch topology and the order is
    the family's membership order. Right side: every family member is upper
    for the order, and whenever x is not family-below y some family member
    that is clopen and upper in the given space contains x but not y.
    """
    if family.n != ps.n:
        raise CarrierMismatch("family does not live on the space carrier")
    rows_a = _family_order_rows(ps.n, family)
    patch = patch_space(ps.labels, family, bound)
    lhs = ps.space.opens == patch.opens and tuple(ps.preorder.up) == rows_a
    witness: dict | None = None
    rhs = True
    for s in family.masks:
        if not ps.preorder.is_upper(s):
            rhs = False
            witness = {"kind": "not-upper",
                       "set": [ps.labels[i] for i in bits(s)]}
            break
    if rhs:
        clopens = set(ps.space.clopen_masks())
        good = [s for s in family.masks
                if s in clopens and ps.preorder.is_upper(s)]
        for x in range(ps.n):
            for y in range(ps.n):
                if x == y or rows_a[x] >> y & 1:
                    continue
                if not any(u >> x & 1 and not u >> y & 1 for u in good):
                    rhs = False
                    witness = {"kind": "separation",
                               "pair": (ps.labels[x], ps.labels[y])}
                    break
            if not rhs:
                break
    return lhs, rhs, witness


def check_frame_pullback(space: FiniteSpace, bound: int | None = None) -> bool:
    """For a T0 space: opens = patch opens that are specialization-upper."""
    spec = specialization_preorder(space)
    if not spec.is_antisymmetric():
        bad = spec.antisymmetry_failure()
        raise NotT0(f"specialization preorder has the cycle {bad}")
    patch = patch_space(space.labels, space.opens, bound)
    uppers = [m for m in patch.opens.masks if spec.is_upper(m)]
    return tuple(uppers) == space.opens.masks


def is_continuous(mapping, source: FiniteSpace, target: FiniteSpace) -> bool:
    """Preimages of opens are open."""
    masks = set(source.opens.masks)
    for o in target.opens.masks:
        pre = 0
        for p in range(source.n):
            if o >> mapping[p] & 1:
                pre |= 1 << p
        if pre not in masks:
            return False
    return True


def is_monotone_map(mapping, source: Preorder, target: Preorder) -> bool:
    for i in range(source.n):
        for j in bits(source.up[i]):
            if not target.leq(mapping[i], mapping[j]):
                return False
    return True
