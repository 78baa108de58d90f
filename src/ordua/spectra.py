"""The spectrum of a finite structure for a model class.

The points are the two-valued models of the class, each kept as the subset
of the carrier it sends to 1: upper sets (monotone maps to 2), filters (flat
models and meet-homs), prime filters (lattice homs) or disjunctive filters
(disjunctive homs). MODEL_CLASSES is the one table of the classes. The basic
set of an element is the set of points containing it, and the order is
inclusion of points. A dlat spectrum is the one kept on the structure's
poset, a setlattices.Birkhoff, whose points are the up-rows of the
join-irreducibles. Dualities put the patch topology of the basic sets on the
points; free Boolean algebras are the powerset of the points.
"""

from __future__ import annotations

from ordua import structures
from ordua.errors import InputFormatError, NotAFilterImage
from ordua.structures import (
    SetFamily,
    Structure,
    StructureMorphism,
    _set_label,
    inclusion_rows,
    transpose,
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
            self._basics = tuple(transpose(self.points.n, self.points.masks))
        return self._basics

    @property
    def order(self) -> tuple[int, ...]:
        if self._order is None:
            self._order = tuple(inclusion_rows(self.points.masks))
        return self._order

    def __repr__(self) -> str:
        return f"Spectrum({len(self.points)} points)"


class ModelClass:
    """A class of two-valued models: the least structure kind it needs, the
    kind of its morphisms, and points(s, bound), its models on s as a
    SetFamily of the subsets they send to 1. Every model but a monotone map
    to 2 is a filter, so principal: an up-row ^x."""

    __slots__ = ("needs", "hom_kind", "points")

    def __init__(self, needs: str, hom_kind: str, points) -> None:
        self.needs, self.hom_kind, self.points = needs, hom_kind, points

    principal = property(lambda self: self.hom_kind != "monotone")


def _semilattice_filters(s: Structure, bound: int | None) -> SetFamily:
    s.require("meet-semilattice", "msl spectrum")
    return structures.filters(s, bound)


# structures' point builders are looked up per call, so wrapping them sees every call
MODEL_CLASSES = {
    "poset-monotone": ModelClass("poset", "monotone", lambda s, bound: SetFamily._of_sorted(
        s.n, s.base.upper_set_masks(bound))),
    "poset-flat": ModelClass("poset", "flat", lambda s, bound: structures.filters(s, bound)),
    "msl": ModelClass("meet-semilattice", "meet-hom", _semilattice_filters),
    "dlat": ModelClass("distributive-lattice", "lattice-hom",
                       lambda s, bound: structures.prime_filters(s)),
    "ddlat": ModelClass("dd-lattice", "disjunctive-hom",
                        lambda s, bound: structures.disjunctive_filters(s)),
}

FREE_KINDS = tuple(MODEL_CLASSES)


def model_class(kind: str) -> ModelClass:
    """The row of MODEL_CLASSES for kind."""
    if kind not in FREE_KINDS:
        raise InputFormatError(f"unknown free kind {kind!r}")
    return MODEL_CLASSES[kind]


def spectrum(s: Structure, kind: str, bound: int | None = None) -> Spectrum:
    """The spectrum of s for the model class of kind, a key of MODEL_CLASSES.

    bound limits the carrier of the upper-set and filter enumerations.
    """
    mc = model_class(kind)
    points = mc.points(s, bound)
    if kind == "dlat":
        return s.base.birkhoff  # its points are these
    if not mc.principal:
        return Spectrum(points, lambda m: _set_label(s.labels, m))
    least = s._lookups()[1]  # the element of each up-row, so of each point ^x
    return Spectrum(points, lambda m: "^" + s.labels[least[m]])


def inverse_image_map(f: StructureMorphism, src_points, tgt_points
                      ) -> tuple[int, ...]:
    """The point map induced by f: for each target point G, the index of
    f^-1(G) among the source points."""
    index = {m: k for k, m in enumerate(src_points)}
    out = []
    for m in tgt_points:
        pre = sum([1 << i for i, y in enumerate(f.map) if m >> y & 1])
        if pre not in index:
            raise NotAFilterImage(
                "inverse image of a spectrum point is not a spectrum point")
        out.append(index[pre])
    return tuple(out)
