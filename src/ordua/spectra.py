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
    filter_point_label,
    inclusion_rows,
)


class Spectrum:
    """Points of a structure for one model class, in ascending mask order.

    basics[i] is the set of points containing carrier element i, as a mask
    over the point indices; order[k] is the mask of points containing point
    k. The order is built on first use: free Boolean algebras need only the
    points and basic sets, and can have thousands of points.
    """

    __slots__ = ("points", "labels", "basics", "_order")

    def __init__(self, points: SetFamily, labels) -> None:
        basics = [0] * points.n
        for k, m in enumerate(points.masks):
            for i in bits(m):
                basics[i] |= 1 << k
        self.points = points
        self.labels = tuple(labels)
        self.basics = tuple(basics)
        self._order = None

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
        points = SetFamily(s.n, s.base.upper_set_masks(bound))
        return Spectrum(points, [_set_label(s.labels, m) for m in points])
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
    return Spectrum(points, [filter_point_label(s, m) for m in points])


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
