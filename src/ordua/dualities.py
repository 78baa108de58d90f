"""Spectra and Priestley-style dualities for finite ordered algebras.

Every spectrum here is built by ordua.spectra: points are filters of the
appropriate sort (all filters, prime filters, disjunctive filters), the basic
set of an element a is the set of points containing a, the topology is the
patch topology of the basic sets, and the order is inclusion of filters.
Every point is a principal filter, so the topologies are closed forms: the
basic sets separate the points, making the patch topology discrete, and the
topology they generate alone is the Alexandrov topology of inclusion.
"""

from __future__ import annotations

from ordua.errors import InputFormatError
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    _discrete,
    _require_priestley,
    _require_t0,
    is_continuous,
    is_monotone_map,
    specialization_preorder,
    weakly_indecomposable_clopen_uppers,
)
from ordua.setlattices import _lattice_of_upsets
from ordua.spectra import FREE_KINDS, Spectrum, inverse_image_map, model_class, spectrum
from ordua.structures import (
    Poset,
    Structure,
    StructureMorphism,
    Subset,
    _require_kind,
    bits,
    check_carrier,
    classify,
    upper_sets,
)

# each model class with principal points has a duality; the flat one's is the posets'
_CLASS_OF = {k.removesuffix("-flat"): k for k in FREE_KINDS if model_class(k).principal}
DUALITY_KINDS = tuple(_CLASS_OF)


class DualityResult:
    """A spectrum with its preordered patch space."""

    __slots__ = ("spectrum", "space")

    def __init__(self, spectrum: Spectrum, space: PreorderedSpace):
        self.spectrum = spectrum
        self.space = space

    # the spectrum's points, under the name that perfbench reads
    point_filters = property(lambda self: self.spectrum.points)

    @property
    def n_points(self) -> int:
        return len(self.spectrum.points)

    def __repr__(self) -> str:
        return f"DualityResult({self.n_points} points)"


class SpaceMap:
    """A point map between preordered spaces, with its checked properties."""

    __slots__ = ("source", "target", "map", "continuous", "monotone")

    def __init__(self, source: PreorderedSpace, target: PreorderedSpace, map):
        self.source = source
        self.target = target
        self.map = tuple(map)
        self.continuous = is_continuous(self.map, source.space, target.space)
        self.monotone = is_monotone_map(self.map, source.preorder, target.preorder)

    def __repr__(self) -> str:
        return f"SpaceMap({self.source.n}->{self.target.n})"


def duality_class(duality: str) -> str:
    """The kind of the model class whose spectrum is the duality's."""
    if duality not in DUALITY_KINDS:
        raise InputFormatError(f"unknown duality kind {duality!r}")
    return _CLASS_OF[duality]


def _patch_spectrum(c: Structure, duality: str, bound: int | None
                    ) -> DualityResult:
    # distinct points are distinct filters, so the basic sets separate them
    sp = spectrum(c, duality_class(duality), bound)
    space = _discrete(sp.labels, bound)
    return DualityResult(sp, PreorderedSpace(space, Preorder._of_rows(sp.labels, sp.order)))


def stone_spectrum(d: Structure, bound: int | None = None) -> FiniteSpace:
    """The coherent (non-patch) topology on the prime filters, generated by
    the basic sets alone. Each point is a principal filter ^x, so its least
    open is the set of points containing ^x: the topology is the Alexandrov
    topology of inclusion."""
    sp = spectrum(d, "dlat")
    check_carrier(len(sp.labels), bound, "topology generation")
    return FiniteSpace.from_rows(sp.labels, sp.order)


def priestley_of_dlat(d: Structure, bound: int | None = None) -> DualityResult:
    """Prime filter spectrum with patch topology and inclusion order; its
    coherent reduct is the Stone space."""
    return _patch_spectrum(d, "dlat", bound)


def dlat_of_priestley(ps: PreorderedSpace) -> Structure:
    """The lattice of clopen upper sets of a Priestley space."""
    return _lattice_of_upsets(ps.labels, _require_priestley(ps).clopen_uppers.masks)


def coherent_of_priestley(ps: PreorderedSpace) -> FiniteSpace:
    """The coherent reduct: the up-sets of the least clopen upper sets."""
    return FiniteSpace.from_rows(ps.labels, _require_priestley(ps).rows)


def priestley_of_coherent(space: FiniteSpace, bound: int | None = None
                          ) -> PreorderedSpace:
    """Patch topology plus specialization order of a T0 space; the minimal
    opens separate the points, so the patch topology is discrete."""
    _require_t0(space)
    return PreorderedSpace(_discrete(space.labels, bound),
                           specialization_preorder(space))


def poset_spectrum(p: Poset, bound: int | None = None) -> DualityResult:
    """Filter spectrum of a poset with the patch topology and inclusion order.

    A filter ^x meets a lower set u iff x is in u, so the open-set space on
    lower-set witnesses (the filters meeting u, for each u) is the coherent
    reduct: the up-sets of the inclusion order."""
    return _patch_spectrum(classify(p), "poset", bound)


def msl_spectrum(m: Structure, bound: int | None = None) -> DualityResult:
    return _patch_spectrum(m, "msl", bound)


def ddlat_spectrum(d: Structure, bound: int | None = None) -> DualityResult:
    return _patch_spectrum(d, "ddlat", bound)


def spectrum_for(c: Structure, duality: str, bound: int | None = None
                 ) -> DualityResult:
    """The spectrum of c for a duality in DUALITY_KINDS, with its patch space."""
    return _patch_spectrum(c, duality, bound)


def dual_morphism(f: StructureMorphism, duality: str, bound: int | None = None
                  ) -> SpaceMap:
    """The spectrum map induced by f: point G of the target spectrum maps to
    the inverse image f^-1(G), which must be a point of the source spectrum."""
    _require_kind(f.map, f.source, f.target, model_class(duality_class(duality)).hom_kind)
    res_src = spectrum_for(f.source, duality, bound)
    res_tgt = spectrum_for(f.target, duality, bound)
    mapping = inverse_image_map(f, res_src.spectrum.points.masks,
                                res_tgt.spectrum.points.masks)
    return SpaceMap(res_tgt.space, res_src.space, mapping)


def extended_image_check(ps: PreorderedSpace, variant: str
                         ) -> tuple[bool, dict | None]:
    """Whether a Priestley space lies in the extended image of a spectrum.

    'coherent-poset': the weakly indecomposable clopen uppers order-separate
    the points, which always holds: in a Priestley space they are the
    principal up-sets of the order. 'msl': additionally the full set is
    weakly indecomposable and the family is closed under binary intersection.
    """
    if variant not in ("coherent-poset", "msl"):
        raise InputFormatError(f"unknown extended-image variant {variant!r}")
    wi = list(weakly_indecomposable_clopen_uppers(ps).masks)
    if variant == "msl":
        full = (1 << ps.n) - 1
        if full not in wi:
            return False, {"kind": "top-not-weakly-indecomposable"}
        wi_set = set(wi)
        for a in range(len(wi)):
            for b in range(a + 1, len(wi)):
                if wi[a] & wi[b] not in wi_set:
                    return False, {
                        "kind": "intersection",
                        "sets": ([ps.labels[i] for i in bits(wi[a])],
                                 [ps.labels[i] for i in bits(wi[b])])}
    return True, None


def upper_elements(fr) -> Subset:
    """Elements b of the free Boolean algebra fr (a free.FreeResult) with:
    b in P and P <= P' imply b in P', for primes ordered by their traces.

    The trace of the prime at point k is the point, and b is in it iff bit k
    of b's powerset mask, its element index in the materialized algebra, is
    set; so these are the up-sets of the spectrum's inclusion order.
    """
    return Subset(fr.structure.n, sum(1 << x for x in upper_sets(fr.spectrum.order)))


def roundtrip_check(d: Structure, bound: int | None = None
                    ) -> tuple[bool, Structure, tuple | None]:
    """Dualize d, rebuild the lattice of clopen upper sets, and check that
    x -> c[x] = {P : x in P} is an order isomorphism onto it: Birkhoff's
    map, which is one iff d is distributive, as classify decides and keeps.
    It is then onto, so the clopen uppers are the basic sets c[x] ascending,
    and x goes to the rank of c[x]; otherwise they are listed.

    Returns (ok, rebuilt lattice, element map as a tuple of target indices).
    """
    res = _patch_spectrum(d, "dlat", bound)
    report = _require_priestley(res.space)
    if not res.spectrum.is_distributive():
        return False, _lattice_of_upsets(res.space.labels, report.clopen_uppers.masks), None
    c = res.spectrum.basics
    ranked, iso = sorted(range(len(c)), key=c.__getitem__), [0] * len(c)
    for r, x in enumerate(ranked):
        iso[x] = r
    return True, _lattice_of_upsets(res.space.labels, [c[x] for x in ranked]), tuple(iso)
