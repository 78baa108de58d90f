"""Free constructions over finite ordered structures.

The free Boolean algebra on a structure c (for a given model class) is
realized concretely on the spectrum of c: the points are the two-valued
models of the class, each generator c embeds as the set of points containing
it, and since distinct points are separated by the generators the generated
Boolean subalgebra of the powerset is the whole powerset of the spectrum.
FreeResult therefore keeps the spectrum and the generator images; the
2^points operation tables are only materialized below a size cap.
"""

from __future__ import annotations

from ordua.errors import (
    CarrierTooLarge,
    KindMismatch,
    NotInjective,
    OracleBoundExceeded,
)
from ordua.setlattices import _lattice_of_upsets, powerset_structure
from ordua.spectra import FREE_KINDS, Spectrum, inverse_image_map, model_class, spectrum
from ordua.structures import (
    Poset,
    SetFamily,
    Structure,
    StructureMorphism,
    Subset,
    _compact,
    _is_monotone,
    _law_test,
    _monotone_maps,
    _require_hom_kind,
    _require_kind,
    bits,
    check_carrier,
    classify,
    inclusion_rows,
    prime_filters,
    upper_sets,
)

MATERIALIZE_CAP = 1024

# the classes of algebras, whose free Boolean algebras recognize_free_boolean decides
_ALGEBRA_KINDS = tuple(k for k in FREE_KINDS if model_class(k).needs != "poset")


class FreeResult:
    """A free structure presented on the points of a spectrum.

    unit_masks[i] is the image of source element i as a subset of the points,
    the basic set of i unless given (read from the spectrum only when asked).
    For Boolean frees the carrier is the full powerset of the points
    (element_masks None); the lattice and frame constructions list their
    element masks explicitly.
    """

    __slots__ = ("source", "kind", "spectrum", "_unit_masks", "element_masks",
                 "_structure")

    def __init__(self, source: Structure, kind: str, spectrum: Spectrum,
                 unit_masks=None, element_masks=None):
        self.source = source
        self.kind = kind
        self.spectrum = spectrum
        self._unit_masks = None if unit_masks is None else tuple(unit_masks)
        self.element_masks = None if element_masks is None else tuple(element_masks)
        self._structure = None

    # the spectrum's points, under the name that perfbench reads
    points = property(lambda self: self.spectrum.points)

    @property
    def unit_masks(self) -> tuple[int, ...]:
        if self._unit_masks is None:
            return self.spectrum.basics
        return self._unit_masks

    @property
    def size(self) -> int:
        if self.element_masks is not None:
            return len(self.element_masks)
        return 1 << len(self.spectrum.points)

    @property
    def structure(self) -> Structure:
        if self._structure is None:
            if self.size > MATERIALIZE_CAP:
                raise CarrierTooLarge(
                    f"free structure has {self.size} elements; cap is {MATERIALIZE_CAP}")
            masks = self.element_masks
            if masks is None:
                masks = range(self.size)
            self._structure = _lattice_of_upsets(self.spectrum.labels, masks)
        return self._structure

    @property
    def unit(self) -> tuple[int, ...]:
        masks = self.element_masks
        if masks is None:
            # powerset masks are materialized in ascending order, so the
            # element index of a mask is the mask itself.
            return self.unit_masks
        index = {m: i for i, m in enumerate(masks)}
        return tuple(index[m] for m in self.unit_masks)

    def unit_morphism(self, hom_kind: str) -> StructureMorphism:
        return StructureMorphism(self.source, self.structure, self.unit, hom_kind)

    def __repr__(self) -> str:
        npts = len(self.spectrum.points)
        return f"FreeResult({self.kind}, {npts} points, size {self.size})"


def free_boolean(c: Structure, kind: str, bound: int | None = None) -> FreeResult:
    """The free Boolean algebra on c for the model class of kind, on the
    points of its spectrum."""
    return FreeResult(c, kind, spectrum(c, kind, bound))


def _flat_model_test(src: Structure, b: Structure):
    # Two equations beyond monotonicity: the images cover the top, and binary
    # meets of images are the joins of images of common lower bounds.
    dn, bdn, meet_at, join_of = src.base.dn, b.base.dn, b._lookups()[0].get, b.join_of
    pairs = [(x, y, list(bits(dn[x] & dn[y]))) for x in range(src.n) for y in range(x, src.n)]
    return lambda m: join_of(m) == b.top and all(meet_at(bdn[m[x]] & bdn[m[y]]) == join_of(
        m[d] for d in common) for x, y, common in pairs)


def is_class_morphism(mapping, src: Structure, tgt: Structure, kind: str) -> bool:
    """Membership in the model class that the free kind is free for."""
    test = _class_test(src, tgt, kind)
    return _is_monotone(mapping, src.base.up, tgt.base.up) is None and test(mapping)


def _class_test(src: Structure, tgt: Structure, kind: str):
    """The laws of the class beyond monotonicity, as a test of monotone maps
    src -> tgt; raises KindMismatch at once if the kinds do not support the
    class's homomorphisms."""
    hom_kind = model_class(kind).hom_kind
    if hom_kind == "flat":
        return _flat_model_test(src, tgt)
    _require_hom_kind(src, tgt, hom_kind)
    return _law_test(src, tgt, hom_kind)


def universal_property_check(fr: FreeResult, atom_bound: int = 3
                             ) -> tuple[bool, dict | None]:
    """Verify the universal property against all powerset targets up to a bound.

    For B = 2^k, Boolean homs out of the free algebra are the maps of the k
    atoms to the spectrum points; composed with the unit they give the k-fold
    products of the unit's columns, one column per point, and must hit each
    class morphism c -> B once. Every class law here holds in 2^k coordinate
    by coordinate, so the class morphisms c -> 2^k are the k-fold products of
    those c -> 2 (Burris and Sankappanavar, A Course in Universal Algebra,
    II.7). So k = 1 decides every k: distinct columns that are the class
    morphisms c -> 2 have distinct products, the class morphisms c -> 2^k;
    otherwise the check fails at one atom.
    """
    if atom_bound < 1:
        return True, None
    c, two = fr.source, powerset_structure(1)
    wanted = sorted(filter(_class_test(c, two, fr.kind), _monotone_maps(c, two)))
    got = sorted([tuple([u >> q & 1 for u in fr.unit_masks])
                  for q in range(len(fr.spectrum.points))])
    if len(set(got)) != len(got):
        dup = next(g for i, g in enumerate(got) if i and got[i - 1] == g)
        return False, {"atoms": 1, "duplicate": list(dup)}
    if got != wanted:
        return False, {"atoms": 1,
                       "missing": [list(m) for m in sorted(set(wanted) - set(got))],
                       "extra": [list(m) for m in sorted(set(got) - set(wanted))]}
    return True, None


def induced_boolean_hom(f: StructureMorphism, fr_src: FreeResult,
                        fr_tgt: FreeResult) -> tuple[int, ...]:
    """The Boolean hom Free(source) -> Free(target) induced by f, as a map of
    powerset masks (valid whenever both frees stay un-materialized too)."""
    src, tgt = fr_src.spectrum.points, fr_tgt.spectrum.points
    if len(src) > 12:
        raise CarrierTooLarge("induced hom table would exceed 2^12 entries")
    pm = inverse_image_map(f, src.masks, tgt.masks)
    return tuple(sum(1 << q for q, k in enumerate(pm) if s >> k & 1)
                 for s in range(1 << len(src)))


def recognize_free_boolean(i: StructureMorphism, duality_kind: str
                           ) -> tuple[bool, dict | None]:
    """Decide whether i: c -> B exhibits B as the free Boolean algebra on c.

    The criterion compares the image of i with the canonical subset of B cut
    out by the trace order on prime filters (inclusion of their traces on c).
    An element is upper when its Birkhoff set, the primes holding it, is an
    up-set of that order; the subset is the elements whose set is a row of
    the order (the indecomposable upper elements, msl), any up-set (dlat),
    or an up-set that _compact passes against the rows (the disjunctively
    compact upper elements, ddlat).
    """
    if duality_kind not in _ALGEBRA_KINDS:
        raise KindMismatch(
            f"recognition supports {'/'.join(_ALGEBRA_KINDS)}, not {duality_kind!r}")
    hom_kind = model_class(duality_kind).hom_kind
    b = i.target
    if b.kind != "boolean-algebra":
        raise KindMismatch("recognition target must be a boolean algebra")
    _require_kind(i.map, i.source, b, hom_kind)
    if len(set(i.map)) != i.source.n:
        raise NotInjective("map is not injective")
    traces = [sum(1 << c for c, y in enumerate(i.map) if pm >> y & 1)
              for pm in prime_filters(b).masks]
    if len(set(traces)) != len(traces):
        # the trace comparison must be a partial order on the primes; for a
        # genuine unit the primes biject with the spectrum points via their
        # traces, so a repeat means b has primes the source cannot separate
        return False, {"duplicate-trace": True}
    rows = inclusion_rows(traces)
    if duality_kind == "msl":
        uppers = rows
    else:
        uppers = upper_sets(rows)
        if duality_kind == "ddlat":
            uppers = [u for u in uppers if _compact(u, rows)]
    element = {c: x for x, c in enumerate(b.base.birkhoff.basics)}
    target = {element[u] for u in uppers}
    image = set(i.map)
    if image == target:
        return True, None
    return False, {
        "missing": sorted(b.labels[x] for x in target - image),
        "extra": sorted(b.labels[x] for x in image - target),
    }


class OracleResult:
    """Presented frame from the generators-and-relations oracle. family holds
    its members, the rule-closed upward-closed subsets of P_fin(doubled
    carrier), each encoded as one big int with a bit per ground subset."""

    __slots__ = ("family", "structure", "unit")

    def __init__(self, family, structure: Structure, unit):
        self.family = tuple(family)
        self.structure = structure
        self.unit = tuple(unit)


def _saturate(start, gens, op, close=lambda z: z) -> set[int]:
    """start closed under x -> close(op(x, g)), g in gens; close sees new values only."""
    out, frontier = set(start), set(start)
    while frontier:
        new = {op(x, g) for x in frontier for g in gens} - out
        frontier = {close(z) for z in new} - out
        out |= frontier
    return out


def thm22_oracle(d: Structure, bound: int | None = None) -> OracleResult:
    """Present the free Boolean algebra on a distributive lattice by
    generators and relations, independently of any spectrum.

    Works over ground subsets of the doubled carrier (second copy = starred).
    A member of the frame is an upward-closed family closed under the
    covering rules of the defining sequents (the order, the meet and join of
    each pair, the bounds, the complement axioms). The rules act
    alike in every context, so (coverage theorem: Johnstone, Stone Spaces,
    II.2.11) the closure of the principal family at g is the meet of the
    generators, the closures at {e} for e in g. The frame is the join-closure
    (join = closure of union) of these meets, reached by joining members with
    them only, as close(close(A) | B) = close(A | B); d goes to its generator.
    """
    d.require("distributive-lattice", "thm22_oracle")
    cap = 3 if bound is None else bound
    if d.n > cap:
        raise OracleBoundExceeded(
            f"oracle bound is {cap}, carrier has {d.n} elements")
    nn = d.n
    m = 2 * nn
    fullbits = (1 << (1 << m)) - 1
    # bit g of contains[e] is bit e of g: runs of 2^e zeros then 2^e ones
    contains = [fullbits // ((1 << (2 << e)) - 1) * (((1 << (1 << e)) - 1) << (1 << e))
                for e in range(m)]
    without = [fullbits ^ a for a in contains]
    # the defining sequents "premises |- conclusions" as (the family of the
    # ground subsets holding the premises, conclusions). Those without
    # conclusions are the seeds: bottom |- and e, e* |-. The rest: |- top,
    # |- e, e*, a |- b for a < b, and for incomparable a, b: a, b |- a meet b
    # and a join b |- a, b (for comparable a, b every family satisfies these).
    up, dn, (meet_at, join_at) = d.base.up, d.base.dn, d._lookups()
    seeds = contains[d.bottom]
    rules = [(fullbits, (d.top,))]
    for a in range(nn):
        seeds |= contains[a] & contains[nn + a]
        rules.append((fullbits, (a, nn + a)))
        rules += [(contains[a], (b,)) for b in bits(up[a] ^ 1 << a)]
        for b in range(a + 1, nn):
            if not (up[a] >> b & 1 or up[b] >> a & 1):
                rules += [(contains[a] & contains[b], (meet_at.get(dn[a] & dn[b]),)),
                          (contains[join_at.get(up[a] & up[b])], (a, b))]

    def close(i_bits: int) -> int:
        i_bits |= seeds
        while True:
            prev = i_bits
            for e in range(m):
                i_bits |= (i_bits & without[e]) << (1 << e)
            # pad[e] holds g iff g | {e} is in the family, which is upward
            # closed now; a rule adds the g holding its premises whose
            # extension by each conclusion is in the family
            pad = [i_bits | (i_bits & a) >> (1 << e) for e, a in enumerate(contains)]
            for held, conclusions in rules:
                for c in conclusions:
                    held &= pad[c]
                i_bits |= held
            if i_bits == prev:
                return i_bits

    gens = [close(1 << (1 << e)) for e in range(m)]
    principals = _saturate({close(1), close(0)}, gens, int.__and__)
    members = sorted(_saturate(principals, list(principals), int.__or__, close))
    labels = [f"m{k}" for k in range(len(members))]
    structure = classify(Poset(labels, inclusion_rows(members)))
    unit = [members.index(gens[e]) for e in range(nn)]
    return OracleResult(members, structure, unit)


def _free_dlat(s: Structure, kind: str, bound: int | None) -> FreeResult:
    # Every msl or dd-lattice point is principal, ^x, and the points including
    # ^x form the basic set of x; so the basic sets generate exactly the
    # up-sets of the spectrum, which are enumerated only up to the cap.
    sp = spectrum(s, kind, bound)
    element_masks = upper_sets(sp.order, MATERIALIZE_CAP + 1)
    if len(element_masks) > MATERIALIZE_CAP:
        raise CarrierTooLarge("free distributive lattice exceeds the size cap")
    return FreeResult(s, f"dlat-on-{kind}", sp, element_masks=element_masks)


def free_dlat_on_msl(m: Structure, bound: int | None = None) -> FreeResult:
    """Free bounded distributive lattice on a meet-semilattice: the 0,1-
    sublattice of the powerset of the filter spectrum generated by the basic
    sets."""
    return _free_dlat(m, "msl", bound)


def free_dlat_on_ddlat(d: Structure, bound: int | None = None) -> FreeResult:
    """Free bounded distributive lattice on a dd-lattice, on the disjunctive
    filter spectrum."""
    return _free_dlat(d, "ddlat", bound)


def free_frame_on_poset(p: Poset, bound: int | None = None) -> FreeResult:
    """Free frame on a poset: the frame of lower sets, unit x -> down-set of x."""
    check_carrier(p.n, bound, "lower-set enumeration")
    element_masks = upper_sets(p.dn, MATERIALIZE_CAP + 1)
    if len(element_masks) > MATERIALIZE_CAP:
        raise CarrierTooLarge("free frame exceeds the size cap")
    singletons = Spectrum(SetFamily(p.n, [1 << i for i in range(p.n)]),
                          lambda m: p.labels[m.bit_length() - 1])
    return FreeResult(classify(p), "frame-on-poset", singletons, p.dn, element_masks)


def frame_supercompacts(fr: FreeResult) -> list[int]:
    """Element indices of the supercompact (nonzero join-prime) frame elements.

    For a lower-set frame these are exactly the masks with a unique maximal
    point (the principal lower sets); supercompact_elements cross-checks this
    against the covering definition at small scale.
    """
    p = fr.source.base
    out = []
    for idx, mask in enumerate(fr.element_masks):
        if p.maximal_mask(mask).bit_count() == 1:
            out.append(idx)
    return out


def supercompact_elements(s: Structure) -> Subset:
    """Elements a != 0 with: a <= join(S) implies a <= some member of S.

    Binary joins suffice in a finite lattice; the empty cover rules out the
    bottom.
    """
    out, up, join_at = 0, s.base.up, s._lookups()[1].get
    for a in range(s.n):
        if a == s.bottom:
            continue
        good = True
        for x in range(s.n):
            for y in range(x, s.n):
                j = join_at(up[x] & up[y])
                if j is None or not s.leq(a, j):
                    continue
                if not (s.leq(a, x) or s.leq(a, y)):
                    good = False
                    break
            if not good:
                break
        if good:
            out |= 1 << a
    return Subset(s.n, out)
