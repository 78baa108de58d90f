"""Lattices of sets: families of subsets of a point carrier that hold the
union and intersection of any two of their members, ordered by inclusion.

Such a family is the set of up-sets of a preorder on the points (Birkhoff),
so it is a distributive lattice, Boolean exactly when it is closed under
complement. The library builds these lattices from up-sets it has just
listed, so ``_lattice_of_upsets`` checks nothing, and the labels and order
rows of its elements are built only when first read: a caller that needs
the size, kind, bounds or complements pays for none of them.
``structure_from_closed_masks`` checks an arbitrary family first.
"""

from __future__ import annotations

from ordua.errors import InputFormatError
from ordua.spectra import Spectrum
from ordua.structures import (
    Poset,
    SetFamily,
    Structure,
    _label_index,
    _set_label,
    bits,
    join_irreducible_mask,
    transpose,
    upper_sets,
)


def _and_fold(values, every: int):
    """The function mask -> every & values[k] for each bit k of mask.

    The values are cut into runs of 8, and the table of a run holds at index
    v the AND of every and the run's values picked by the bits of v (built
    by doubling), so a fold is one lookup per 8 bits of the mask.
    """
    tables = []
    for start in range(0, len(values), 8):
        table = [every]
        for v in values[start:start + 8]:
            table += [t & v for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def fold(mask: int) -> int:
        acc = every
        for table in tables:
            acc &= table[mask & 255]
            mask >>= 8
        return acc

    return fold


class Birkhoff(Spectrum):
    """The dlat spectrum of a poset p, which reads p's labels: its points are
    the up-rows ^j_t of the join-irreducibles j_t (the x whose strict
    down-set is principal), ascending. In a distributive lattice they are the
    prime filters, the basic set c[x] = {t : j_t <= x} of x holds the primes
    holding x, and the order row of prime t is c[j_t]. Poset.birkhoff builds
    one per poset and keeps it, and is_distributive keeps its verdict."""

    __slots__ = ("up", "elements", "_distributive")

    def __init__(self, p: Poset) -> None:
        self.up = up = p.up
        self.elements = tuple(sorted(bits(join_irreducible_mask(p)), key=up.__getitem__))
        primes, labels = [up[x] for x in self.elements], p.labels
        least = dict(zip(primes, self.elements))
        super().__init__(SetFamily._of_sorted(len(up), primes),
                         lambda m: "^" + labels[least[m]])
        self._distributive = None

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            c = self.basics
            self._order = tuple([c[j] for j in self.elements])
        return self._order

    def is_distributive(self) -> bool:
        """Whether x -> c[x] maps the poset isomorphically onto the down-sets
        of its join-irreducibles J, which makes it a distributive lattice
        (Birkhoff). It is an order embedding iff every up-row is the meet of
        the primes above x, and then onto iff J has only n down-sets, the
        up-sets of its reversed order, whose up-rows are the rows c[j]."""
        if self._distributive is None:
            n, c = len(self.up), self.basics
            self._distributive = (
                tuple(map(_and_fold(self.points.masks, (1 << n) - 1), c)) == tuple(self.up)
                and len(upper_sets(self.order, n + 1)) == n)
        return self._distributive


def _family_rows(npts: int, masks) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up- and down-rows of the inclusion order of masks, subsets of npts
    points: the members above m are those holding every point of m, the
    members below it those holding no point outside it."""
    every = (1 << len(masks)) - 1
    holders = transpose(npts, masks)  # index masks of the members holding each point
    above = _and_fold(holders, every)
    within = _and_fold([every ^ h for h in holders], every)
    full = (1 << npts) - 1
    return tuple(map(above, masks)), tuple([within(full ^ m) for m in masks])


def _labels_may_collide(point_labels) -> bool:
    """Whether two sets of these points can get the same _set_label: only if
    a label is empty, or the part of a label before one of its commas is a
    label too (at the first label where two colliding sets differ, the
    shorter one is such a part of the longer)."""
    have = set(point_labels)
    return "" in have or any(x[:i] in have for x in point_labels if "," in x
                             for i in range(len(x)) if x[i] == ",")


class _SetOrder(Poset):
    """The inclusion order of masks, the ascending members of a lattice of
    sets of the points, which is closed under & and |, so it has every meet.
    The labels, label index and rows are built on first read and kept."""

    __slots__ = ("point_labels", "masks", "_labels", "_at", "_rows")

    def __init__(self, point_labels: tuple[str, ...], masks: tuple[int, ...]):
        self.point_labels, self.masks, self._meets = point_labels, masks, True
        self._labels = self._at = self._rows = self._birkhoff = None
        if _labels_may_collide(point_labels):
            self._at = _label_index(self.labels)  # raises DuplicateLabel now

    n = property(lambda self: len(self.masks))
    up = property(lambda self: self._order_rows()[0])
    dn = property(lambda self: self._order_rows()[1])

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple([_set_label(self.point_labels, m) for m in self.masks])
        return self._labels

    @property
    def _index(self) -> dict[str, int]:
        if self._at is None:
            self._at = _label_index(self.labels)
        return self._at

    def _order_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self._rows is None:
            self._rows = _family_rows(len(self.point_labels), self.masks)
        return self._rows


def _lattice_of_upsets(point_labels, masks) -> Structure:
    """The lattice of masks, which must be all the up-sets of some preorder
    on the points, ascending (as upper_sets lists them): nothing is checked.
    The empty and full sets are its bottom and top. Complement reverses mask
    order, so the family is closed under it iff it maps the list onto itself
    reversed; a Boolean algebra has 2^k elements, so no other size is tried."""
    masks = tuple(masks)
    n, full = len(masks), masks[-1]
    base = _SetOrder(tuple(point_labels), masks)
    if n & (n - 1) or tuple([full ^ m for m in reversed(masks)]) != masks:
        return Structure(base, "distributive-lattice", n - 1, 0, None)
    return Structure(base, "boolean-algebra", n - 1, 0, tuple(range(n - 1, -1, -1)))


def minimal_opens(n: int, masks) -> tuple[int, ...]:
    """Row p: the intersection of the masks containing p (all n points if
    none does), the least open around p in the topology they generate."""
    rows = [(1 << n) - 1] * n
    for m in masks:
        for p in bits(m):
            rows[p] &= m
    return tuple(rows)


def structure_from_closed_masks(point_labels, masks) -> Structure:
    """Structure on a family of subsets closed under union and intersection.

    The family must contain the empty set and the full set; meets/joins are
    then set intersection/union, the lattice is distributive (a sublattice of a
    powerset), and it is Boolean exactly when closed under set complement.

    Decided per point: the members are up-sets of the preorder whose row x is
    the meet of the members holding x, and the family is closed iff they are
    all of them.
    """
    point_labels = tuple(str(x) for x in point_labels)
    masks = tuple(sorted(set(int(m) for m in masks)))
    full = (1 << len(point_labels)) - 1
    # sorted, so every mask lies in the carrier once the ends are empty and full
    if not masks or masks[0] != 0 or masks[-1] != full:
        raise InputFormatError("closed family must contain the empty and full sets")
    if upper_sets(minimal_opens(len(point_labels), masks), len(masks) + 1) != list(masks):
        raise InputFormatError("set family is not closed under union/intersection")
    return _lattice_of_upsets(point_labels, masks)


def powerset_structure(k: int) -> Structure:
    """The Boolean algebra of the subsets of p0..p(k-1), element i the set
    with mask i: all the up-sets of the discrete order, ascending."""
    return _lattice_of_upsets([f"p{i}" for i in range(k)], range(1 << k))
