"""Finite topological spaces, preorders, and Priestley-style checks.

A finite topology is its minimal opens, the least open around each point:
these rows are its specialization preorder and the opens are its up-sets
(Alexandrov correspondence). So a FiniteSpace is a Preorder whose up-rows are
the minimal opens; ``opens`` is a view built on first read, bounded by the
carrier check each builder makes, and openness, T0, clopens, continuity and
equality are decided on the rows.

A space is discrete when every point is its own minimal open
(``_is_discrete``). There every subset is open and every point is its own
component, so the opens and the least clopen upper sets are read in closed
form, not listed: the opens are the SetFamily of every subset, which keeps
range(1 << n) and lists its masks only if they are read.
"""

from __future__ import annotations

from ordua.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InputFormatError,
    NotPriestley,
    NotT0,
)
from ordua.setlattices import _lattice_of_upsets, minimal_opens
from ordua.structures import (
    DEFAULT_ENUMERATION_BOUND,
    Poset,
    SetFamily,
    Structure,
    _is_monotone,
    bits,
    check_carrier,
    count_upper_sets,
    transitive_closure,
    transpose,
    upper_sets,
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
    def _of_rows(cls, labels, up) -> "Preorder":
        """The preorder on labels with up-rows up, which must already be
        reflexive and transitive: only the labels are checked."""
        pre = object.__new__(cls)
        pre.labels, pre.up = tuple(labels), tuple(up)
        if len(set(pre.labels)) != len(pre.up):
            raise InputFormatError("bad preorder carrier")
        return pre

    @classmethod
    def from_poset(cls, p: Poset) -> "Preorder":
        return cls._of_rows(p.labels, p.up)

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def is_antisymmetric(self) -> bool:
        # i <= j <= i exactly when i and j have the same up-row
        return len(set(self.up)) == self.n

    def antisymmetry_failure(self) -> tuple[int, int] | None:
        """The first two indices of the repeated up-row whose first index is
        least, or None: i <= j <= i exactly when i and j have the same row."""
        if self.is_antisymmetric():
            return None
        classes: dict[int, list[int]] = {}
        for i, row in enumerate(self.up):
            classes.setdefault(row, []).append(i)
        return next((tuple(c[:2]) for c in classes.values() if len(c) > 1), None)

    def is_upper(self, mask: int) -> bool:
        return all(not (self.up[i] & ~mask) for i in bits(mask))

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.labels == other.labels and self.up == other.up)

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        return f"Preorder(n={self.n})"


def _is_discrete(up) -> bool:
    """Whether every row is its own point alone: rows are reflexive, so this
    holds exactly when they sum to the full set, a test made in C."""
    return sum(up) == (1 << len(up)) - 1


def _components(rows) -> list[int]:
    """Row p: the connected component of p in the graph of the rows."""
    return transitive_closure(map(int.__or__, rows, transpose(len(rows), rows)))


class FiniteSpace(Preorder):
    """A finite space is its specialization preorder: up[p] is the least open
    containing p (its minimal open), and opens lists the up-sets on first read."""

    __slots__ = ("_opens",)

    def __init__(self, labels, opens) -> None:
        labels = tuple(labels)
        n = len(labels)
        family = opens if isinstance(opens, SetFamily) else SetFamily(n, opens)
        if family.n != n:
            raise CarrierMismatch("opens do not live on the point carrier")
        if len(family) == 1 << n:
            # 2^n distinct masks below 2^n are every subset: the discrete space
            minimal = [1 << k for k in range(n)]
        else:
            masks = set(family.masks)
            if 0 not in masks or (1 << n) - 1 not in masks:
                raise InputFormatError("a topology contains the empty and full sets")
            # each member is an up-set of the minimal opens of its points, so
            # the family is a topology iff it holds them and all of those up-sets
            minimal = minimal_opens(n, family.masks)
            if not all(m in masks for m in minimal):
                raise InputFormatError("family is not closed under intersections")
            if upper_sets(minimal, len(masks) + 1) != list(family.masks):
                raise InputFormatError("family is not closed under unions")
        super().__init__(labels, minimal)
        self._opens = family

    @classmethod
    def from_rows(cls, labels, rows) -> "FiniteSpace":
        """The space whose minimal opens are rows, which must be a preorder."""
        space = cls._of_rows(labels, rows)
        space._opens = None
        return space

    @property
    def minimal(self) -> tuple[int, ...]:
        return self.up

    @property
    def opens(self) -> SetFamily:
        """The up-sets of the rows, listed on first read; when the space is
        discrete, the family of every subset, which lists nothing."""
        if self._opens is None:
            # len(up), not the n and full properties: every Alexandrov space
            # the preorder checks build reads its opens once
            up = self.up
            n = len(up)
            self._opens = SetFamily._of_sorted(
                n, range(1 << n) if _is_discrete(up) else upper_sets(up))
        return self._opens

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return 0 <= mask <= self.full and self.is_upper(mask)

    is_t0 = Preorder.is_antisymmetric

    def __repr__(self) -> str:
        return f"FiniteSpace(n={self.n}, {count_upper_sets(self.up)} opens)"


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

    def __eq__(self, other) -> bool:
        return (isinstance(other, PreorderedSpace)
                and self.space == other.space and self.preorder == other.preorder)

    def __hash__(self) -> int:
        return hash((self.space, self.preorder))

    def __repr__(self) -> str:
        return f"PreorderedSpace(n={self.n})"


def _clopen_upper_rows(ps: PreorderedSpace) -> list[int]:
    """Row p: the least clopen upper set containing p, which is p's row in the
    union of the component relation and the order, closed transitively. In a
    discrete space the components are the points, so it is p's row in the
    order, which is transitive already."""
    if _is_discrete(ps.space.up):
        return list(ps.preorder.up)
    rows = zip(_components(ps.space.up), ps.preorder.up)
    return transitive_closure(c | u for c, u in rows)


def _unseparated_pair(up, rows) -> tuple[int, int] | None:
    """The least x, then the least y for it, with x not <= y in the reflexive
    relation with up-rows up, yet y in rows[x], the least member of a family
    holding x; None if the family order-separates the points."""
    for x, row in enumerate(rows):
        rest = row & ~up[x]
        if rest:
            return x, (rest & -rest).bit_length() - 1
    return None


class PriestleyReport:
    """Outcome of the Priestley axioms on a preordered (finite, so compact)
    space; rows[p] is the least clopen upper set around p, and the clopen
    uppers are their unions."""

    __slots__ = ("is_partial_order", "failing_pair", "rows")

    is_compact = True

    def __init__(self, is_partial_order, failing_pair, rows):
        self.is_partial_order = is_partial_order
        self.failing_pair = failing_pair
        self.rows = tuple(rows)

    @property
    def clopen_uppers(self) -> SetFamily:
        return SetFamily._of_sorted(len(self.rows), upper_sets(self.rows))

    @property
    def ok(self) -> bool:
        return self.failing_pair is None

    separation_ok = ok

    def to_dict(self) -> dict:
        return {
            "is-compact": self.is_compact,
            "is-partial-order": self.is_partial_order,
            "separation-ok": self.separation_ok,
            "is-priestley": self.ok,
            "failing-pair": list(self.failing_pair) if self.failing_pair else None,
            "clopen-upper-count": count_upper_sets(self.rows),
        }


def generate_topology(labels, subbasis: SetFamily, bound: int | None = None
                      ) -> FiniteSpace:
    """The topology generated by a subbasis (all unions of finite intersections)."""
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    if subbasis.n != n:
        raise CarrierMismatch("subbasis does not live on the point carrier")
    check_carrier(n, bound, "topology generation")
    return FiniteSpace.from_rows(labels, minimal_opens(n, subbasis.masks))


def patch_space(labels, family: SetFamily, bound: int | None = None) -> FiniteSpace:
    """The patch topology: generated by the family together with its complements."""
    return generate_topology(labels, _with_complements(family), bound)


def _with_complements(family: SetFamily) -> SetFamily:
    full = (1 << family.n) - 1
    return SetFamily(family.n, list(family.masks) + [full ^ m for m in family.masks])


def _discrete(labels, bound: int | None) -> FiniteSpace:
    """The patch space of a family that separates the points: every set is
    open, so each point is its own minimal open."""
    check_carrier(len(labels), bound, "topology generation")
    return FiniteSpace.from_rows(labels, [1 << k for k in range(len(labels))])


def specialization_preorder(space: FiniteSpace) -> Preorder:
    """x <= y iff every open containing x contains y: the space's own rows."""
    return Preorder._of_rows(space.labels, space.up)


def alexandrov_space(pre: Preorder, bound: int | None = None) -> FiniteSpace:
    """The Alexandrov topology: all upper sets of the preorder."""
    check_carrier(pre.n, bound, "upper-set enumeration")
    return FiniteSpace.from_rows(pre.labels, pre.up)


def upper_open_reduct(ps: PreorderedSpace) -> FiniteSpace:
    """Keep only the opens that are upper for the order: the up-sets of the
    specialization preorder and the order together."""
    rows = zip(ps.space.up, ps.preorder.up)
    return FiniteSpace.from_rows(ps.labels, transitive_closure(m | u for m, u in rows))


def preorder_coreflection(ps: PreorderedSpace) -> Preorder:
    """Intersect the order with the specialization preorder of the topology."""
    return Preorder._of_rows(ps.labels, [o & s for o, s in zip(ps.preorder.up, ps.space.up)])


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
    # row p is the cell of p: the patch minimal open around p
    cells = minimal_opens(n, _with_complements(family).masks)
    if len(set(cells)) > b:
        raise CarrierTooLarge(
            f"pattern algebra would have 2^{len(set(cells))} elements")
    return _lattice_of_upsets(labels, upper_sets(cells))


def priestley_check(ps: PreorderedSpace) -> PriestleyReport:
    """Check the Priestley axioms: compactness (automatic for finite spaces),
    a partial order, and separation of x !<= y by a clopen upper set: y is
    outside the least clopen upper set around x."""
    rows = _clopen_upper_rows(ps)
    cyc = ps.preorder.antisymmetry_failure()
    bad = cyc or _unseparated_pair(ps.preorder.up, rows)
    pair = None if bad is None else (ps.labels[bad[0]], ps.labels[bad[1]])
    return PriestleyReport(cyc is None, pair, rows)


def _require_priestley(ps: PreorderedSpace) -> PriestleyReport:
    """The Priestley report of ps; raise NotPriestley unless it holds."""
    report = priestley_check(ps)
    if not report.ok:
        raise NotPriestley(f"not a Priestley space (pair {report.failing_pair})")
    return report


def weakly_indecomposable_clopen_uppers(ps: PreorderedSpace) -> SetFamily:
    """Clopen upper sets that are not the union of their proper clopen-upper subsets.

    Each clopen upper set is the union of the least clopen upper sets around
    its points, so it is weakly indecomposable iff it is one of them. The
    empty set is the empty union, hence decomposable.
    """
    return SetFamily(ps.n, _require_priestley(ps).rows)


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
    rows_a = minimal_opens(ps.n, family.masks)
    patch = patch_space(ps.labels, family, bound)
    lhs = ps.space.up == patch.up and tuple(ps.preorder.up) == rows_a
    witness: dict | None = None
    rhs = True
    for s in family.masks:
        if not ps.preorder.is_upper(s):
            rhs = False
            witness = {"kind": "not-upper",
                       "set": [ps.labels[i] for i in bits(s)]}
            break
    if rhs:
        sp = ps.space
        good = [s for s in family.masks if sp.is_open(s)
                and sp.is_open(sp.full ^ s) and ps.preorder.is_upper(s)]
        bad = _unseparated_pair(rows_a, minimal_opens(ps.n, good))
        if bad is not None:
            rhs = False
            witness = {"kind": "separation",
                       "pair": (ps.labels[bad[0]], ps.labels[bad[1]])}
    return lhs, rhs, witness


def _require_t0(space: FiniteSpace) -> None:
    """Raise NotT0 naming the first two points with the same opens, if any."""
    bad = space.antisymmetry_failure()
    if bad is not None:
        pair = (space.labels[bad[0]], space.labels[bad[1]])
        raise NotT0(f"not a T0 space (pair {pair})")


def check_frame_pullback(space: FiniteSpace, bound: int | None = None) -> bool:
    """For a T0 space: opens = patch opens that are specialization-upper.
    Always true: the minimal opens of a T0 space separate its points, so the
    patch topology is discrete, and its specialization-upper opens are the
    up-sets of the space's own rows. Only T0 and the bound are checked."""
    _require_t0(space)
    check_carrier(space.n, bound, "topology generation")
    return True


def is_monotone_map(mapping, source: Preorder, target: Preorder) -> bool:
    """Whether the map is monotone. For finite spaces (their specialization
    preorders) this is continuity: preimages of opens are open."""
    return _is_monotone(mapping, source.up, target.up) is None


is_continuous = is_monotone_map
