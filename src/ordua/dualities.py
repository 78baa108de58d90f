"""Spectra and Priestley-style dualities for finite ordered algebras.

Every spectrum here is built by ordua.spectra: points are filters of the
appropriate sort (all filters, prime filters, disjunctive filters), the basic
set of an element a is the set of points containing a, the topology is the
patch topology of the basic sets, and the order is inclusion of filters.
"""

from __future__ import annotations

from ordua.errors import InputFormatError, KindMismatch, NotPriestley, NotT0
from ordua.free import free_boolean
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    generate_topology,
    is_continuous,
    is_monotone_map,
    patch_space,
    priestley_check,
    specialization_preorder,
    upper_open_reduct,
    weakly_indecomposable_clopen_uppers,
)
from ordua.spectra import inverse_image_map, spectrum
from ordua.structures import (
    Poset,
    SetFamily,
    Structure,
    StructureMorphism,
    Subset,
    _satisfies_kind,
    bits,
    classify,
    inclusion_rows,
    structure_from_closed_masks,
)

DUALITY_KINDS = ("poset", "msl", "dlat", "ddlat")

_DUAL_HOM_KIND = {"poset": "flat", "msl": "meet-hom", "dlat": "lattice-hom",
                  "ddlat": "disjunctive-hom"}


class DualityResult:
    """A spectrum: preordered patch space, point filters, and the embedding."""

    __slots__ = ("space", "point_filters", "point_labels", "embedding", "auxiliary")

    def __init__(self, space: PreorderedSpace, point_filters: SetFamily,
                 point_labels, embedding):
        self.space = space
        self.point_filters = point_filters
        self.point_labels = tuple(point_labels)
        self.embedding = tuple(embedding)
        self.auxiliary: dict[str, FiniteSpace] = {}

    @property
    def n_points(self) -> int:
        return len(self.point_labels)

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


class OrderedBoolean:
    """A Boolean algebra with the trace order on its prime filter spectrum."""

    __slots__ = ("algebra", "spec_order", "traces", "free")

    def __init__(self, algebra: Structure, spec_order: Poset, traces, free):
        self.algebra = algebra
        self.spec_order = spec_order
        self.traces = tuple(traces)
        self.free = free

    def __repr__(self) -> str:
        return f"OrderedBoolean(n={self.algebra.n}, {self.spec_order.n} primes)"


def _patch_spectrum(c: Structure, duality: str, bound: int | None
                    ) -> DualityResult:
    sp = spectrum(c, "poset-flat" if duality == "poset" else duality, bound)
    space = patch_space(sp.labels, SetFamily(len(sp.labels), sp.basics), bound)
    return DualityResult(PreorderedSpace(space, Preorder(sp.labels, sp.order)),
                         sp.points, sp.labels, sp.basics)


def stone_spectrum(d: Structure, bound: int | None = None) -> FiniteSpace:
    """The coherent (non-patch) topology on the prime filters, generated by
    the basic sets alone."""
    sp = spectrum(d, "dlat")
    return generate_topology(sp.labels, SetFamily(len(sp.labels), sp.basics), bound)


def priestley_of_dlat(d: Structure, bound: int | None = None) -> DualityResult:
    """Prime filter spectrum with patch topology and inclusion order; the
    Stone topology generated by the basic sets is auxiliary 'stone'."""
    res = _patch_spectrum(d, "dlat", bound)
    res.auxiliary["stone"] = generate_topology(
        res.point_labels, SetFamily(res.n_points, res.embedding), bound)
    return res


def dlat_of_priestley(ps: PreorderedSpace) -> Structure:
    """The lattice of clopen upper sets of a Priestley space."""
    report = priestley_check(ps)
    if not report.ok:
        raise NotPriestley(f"not a Priestley space (pair {report.failing_pair})")
    return structure_from_closed_masks(ps.labels, ps.clopen_upper_masks())


def coherent_of_priestley(ps: PreorderedSpace) -> FiniteSpace:
    """Drop to the coherent reduct: keep only the open upper sets."""
    report = priestley_check(ps)
    if not report.ok:
        raise NotPriestley(f"not a Priestley space (pair {report.failing_pair})")
    return upper_open_reduct(ps)


def priestley_of_coherent(space: FiniteSpace, bound: int | None = None
                          ) -> PreorderedSpace:
    """Patch topology plus specialization order of a T0 space."""
    spec = specialization_preorder(space)
    if not spec.is_antisymmetric():
        raise NotT0(f"specialization has cycle {spec.antisymmetry_failure()}")
    return PreorderedSpace(patch_space(space.labels, space.opens, bound), spec)


def poset_spectrum(p: Poset, bound: int | None = None) -> DualityResult:
    """Filter spectrum of a poset: the open-set space on lower-set witnesses
    (auxiliary 'A') and the patch-plus-inclusion ordered space."""
    res = _patch_spectrum(classify(p), "poset", bound)
    a_opens = set()
    for u in p.lower_set_masks(bound):
        f_u = 0
        for i in bits(u):
            f_u |= res.embedding[i]
        a_opens.add(f_u)
    res.auxiliary["A"] = FiniteSpace(res.point_labels, sorted(a_opens))
    return res


def msl_spectrum(m: Structure, bound: int | None = None) -> DualityResult:
    return _patch_spectrum(m, "msl", bound)


def ddlat_spectrum(d: Structure, bound: int | None = None) -> DualityResult:
    return _patch_spectrum(d, "ddlat", bound)


def spectrum_for(c: Structure, duality: str, bound: int | None = None
                 ) -> DualityResult:
    if duality == "poset":
        return poset_spectrum(c.base, bound)
    if duality == "msl":
        return msl_spectrum(c, bound)
    if duality == "dlat":
        return priestley_of_dlat(c, bound)
    if duality == "ddlat":
        return ddlat_spectrum(c, bound)
    raise InputFormatError(f"unknown duality kind {duality!r}")


def dual_morphism(f: StructureMorphism, duality: str, bound: int | None = None
                  ) -> SpaceMap:
    """The spectrum map induced by f: point G of the target spectrum maps to
    the inverse image f^-1(G), which must be a point of the source spectrum."""
    if duality not in DUALITY_KINDS:
        raise InputFormatError(f"unknown duality kind {duality!r}")
    hom_kind = _DUAL_HOM_KIND[duality]
    if not _satisfies_kind(f.map, f.source, f.target, hom_kind):
        raise KindMismatch(f"map is not a {hom_kind}")
    res_src = spectrum_for(f.source, duality, bound)
    res_tgt = spectrum_for(f.target, duality, bound)
    mapping = inverse_image_map(f, res_src.point_filters.masks,
                                res_tgt.point_filters.masks)
    return SpaceMap(res_tgt.space, res_src.space, mapping)


def extended_image_check(ps: PreorderedSpace, variant: str
                         ) -> tuple[bool, dict | None]:
    """Whether a Priestley space lies in the extended image of a spectrum.

    'coherent-poset': the weakly indecomposable clopen uppers order-separate
    the points. 'msl': additionally the full set is weakly indecomposable and
    the family is closed under binary intersection.
    """
    if variant not in ("coherent-poset", "msl"):
        raise InputFormatError(f"unknown extended-image variant {variant!r}")
    wi = list(weakly_indecomposable_clopen_uppers(ps).masks)
    for x in range(ps.n):
        for y in range(ps.n):
            if x == y or ps.preorder.leq(x, y):
                continue
            if not any(w >> x & 1 and not w >> y & 1 for w in wi):
                return False, {"kind": "separation",
                               "pair": (ps.labels[x], ps.labels[y])}
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


def ordered_boolean_of(c: Structure, kind: str, bound: int | None = None
                       ) -> OrderedBoolean:
    """The free Boolean algebra on c with the trace order on its primes.

    The primes of the free algebra correspond to the spectrum points, and the
    trace of a prime is exactly the point's filter, so the order is inclusion
    of points.
    """
    fr = free_boolean(c, kind, bound)
    algebra = fr.structure
    pts = fr.points.masks
    spec_order = Poset(fr.point_labels, inclusion_rows(pts))
    return OrderedBoolean(algebra, spec_order, pts, fr)


def upper_elements(ob: OrderedBoolean) -> Subset:
    """Elements b with: b in P and P <= P' imply b in P'.

    Membership of b in the prime at point k is bit k of b's powerset mask,
    which equals its element index in the materialized free algebra.
    """
    n = ob.algebra.n
    out = 0
    for x in range(n):
        good = True
        for k in bits(x):
            if ob.spec_order.up[k] & ~x:
                good = False
                break
        if good:
            out |= 1 << x
    return Subset(n, out)


def roundtrip_check(d: Structure, bound: int | None = None
                    ) -> tuple[bool, Structure, tuple | None]:
    """Dualize d, rebuild the lattice of clopen upper sets, and check that
    x -> {P : x in P} is an order isomorphism onto the rebuilt lattice.

    Returns (ok, rebuilt lattice, element map as a tuple of target indices).
    """
    res = priestley_of_dlat(d, bound)
    result = dlat_of_priestley(res.space)
    index = {m: i for i, m in enumerate(sorted(res.space.clopen_upper_masks()))}
    if d.n != result.n:
        return False, result, None
    iso = []
    for m in res.embedding:
        if m not in index:
            return False, result, None
        iso.append(index[m])
    if len(set(iso)) != d.n:
        return False, result, None
    for i in range(d.n):
        for j in range(d.n):
            if d.leq(i, j) != (res.embedding[i] & ~res.embedding[j] == 0):
                return False, result, None
    return True, result, tuple(iso)
