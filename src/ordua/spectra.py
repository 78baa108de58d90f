"""The spectrum of a finite structure for a model class.

The points are the two-valued models of the class, each kept as the subset
of the carrier it sends to 1: upper sets (monotone maps to 2), filters (flat
models and meet-homs), prime filters (lattice homs) or disjunctive filters
(disjunctive homs). The basic set of an element is the set of points
containing it, and the order is inclusion of points. Dualities put the patch
topology of the basic sets on the points; free Boolean algebras are the
powerset of the points.
"""

from __future__ import annotations

from ordua import structures
from ordua.errors import InputFormatError, NotAFilterImage
from ordua.structures import (
    SetFamily,
    Structure,
    StructureMorphism,
    _set_label,
    bits,
    inclusion_rows,
)


class Spectrum:
    """Points of a structure for one model class, in ascending mask order.

    name(m) is the label of the point with mask m; basics[i] is the set of
    points containing carrier element i, as a mask over the point indices;
    order[k] is the mask of points containing point k. Only the points are
    built up front, the labels, basic sets and order on first read: a free
    Boolean algebra can have thousands of points, and a caller may read only
    how many there are.
    """

    __slots__ = ("points", "_name", "_labels", "_basics", "_order")

    def __init__(self, points: SetFamily, name) -> None:
        self.points = points
        self._name = name
        self._labels = self._basics = self._order = None

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = tuple(map(self._name, self.points.masks))
        return self._labels

    @property
    def basics(self) -> tuple[int, ...]:
        if self._basics is None:
            basics = [0] * self.points.n
            for k, m in enumerate(self.points.masks):
                for i in bits(m):
                    basics[i] |= 1 << k
            self._basics = tuple(basics)
        return self._basics

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            self._order = tuple(inclusion_rows(self.points.masks))
        return self._order

    def __repr__(self) -> str:
        return f"Spectrum({len(self.points)} points)"


def spectrum(s: Structure, kind: str, bound: int | None = None) -> Spectrum:
    """The spectrum of s for a model class in free.FREE_KINDS.

    bound limits the carrier of the upper-set and filter enumerations.
    """
    if kind == "poset-monotone":
        points = SetFamily._of_sorted(s.n, s.base.upper_set_masks(bound))
        return Spectrum(points, lambda m: _set_label(s.labels, m))
    if kind == "msl":
        s.require("meet-semilattice", "msl spectrum")
    if kind in ("poset-flat", "msl"):
        points = structures.filters(s, bound)
    elif kind == "dlat":
        points = structures.prime_filters(s)
    elif kind == "ddlat":
        points = structures.disjunctive_filters(s)
    else:
        raise InputFormatError(f"unknown free kind {kind!r}")
    # every point of these kinds is a principal up-row ^x
    least = {row: x for x, row in enumerate(s.base.up)}
    return Spectrum(points, lambda m: "^" + s.labels[least[m]])


def inverse_image_map(f: StructureMorphism, src_points, tgt_points
                      ) -> tuple[int, ...]:
    """The point map induced by f: for each target point G, the index of
    f^-1(G) among the source points."""
    index = {m: k for k, m in enumerate(src_points)}
    out = []
    for m in tgt_points:
        pre = 0
        for i, y in enumerate(f.map):
            if m >> y & 1:
                pre |= 1 << i
        if pre not in index:
            raise NotAFilterImage(
                "inverse image of a spectrum point is not a spectrum point")
        out.append(index[pre])
    return tuple(out)
