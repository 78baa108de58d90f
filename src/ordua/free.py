"""Free constructions over finite ordered structures.

The free Boolean algebra on a structure c (for a given model class) is
realized concretely on the spectrum of c: the points are the two-valued
models of the class, each generator c embeds as the set of points containing
it, and since distinct points are separated by the generators the generated
Boolean subalgebra of the powerset is the whole powerset of the spectrum.
FreeResult therefore keeps the points and the generator images; the 2^points
operation tables are only materialized below a size cap.
"""

from __future__ import annotations

import itertools

from ordua.errors import (
    CarrierTooLarge,
    InputFormatError,
    KindMismatch,
    NotInjective,
    OracleBoundExceeded,
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
    disjunctively_compact_elements,
    inclusion_rows,
    indecomposable_elements,
    popcount,
    powerset_structure,
    prime_filters,
    structure_from_closed_masks,
)

MATERIALIZE_CAP = 1024

FREE_KINDS = ("poset-monotone", "poset-flat", "msl", "dlat", "ddlat")

_HOM_KIND_OF = {"msl": "meet-hom", "dlat": "lattice-hom", "ddlat": "disjunctive-hom"}


class FreeResult:
    """A free structure presented on a point set.

    points are subsets of the source carrier; unit_masks[i] is the image of
    source element i as a subset of the points. For Boolean frees the carrier
    is the full powerset of the points (element_masks None); the lattice and
    frame constructions list their element masks explicitly.
    """

    __slots__ = ("source", "kind", "points", "point_labels", "unit_masks",
                 "element_masks", "_structure")

    def __init__(self, source: Structure, kind: str, points: SetFamily,
                 point_labels, unit_masks, element_masks=None):
        self.source = source
        self.kind = kind
        self.points = points
        self.point_labels = tuple(point_labels)
        self.unit_masks = tuple(unit_masks)
        self.element_masks = None if element_masks is None else tuple(element_masks)
        self._structure = None

    @property
    def size(self) -> int:
        if self.element_masks is not None:
            return len(self.element_masks)
        return 1 << len(self.points)

    @property
    def point_basis(self) -> SetFamily:
        return SetFamily(len(self.points), self.unit_masks)

    @property
    def structure(self) -> Structure:
        if self._structure is None:
            if self.size > MATERIALIZE_CAP:
                raise CarrierTooLarge(
                    f"free structure has {self.size} elements; cap is {MATERIALIZE_CAP}")
            masks = self.element_masks
            if masks is None:
                masks = range(1 << len(self.points))
            self._structure = structure_from_closed_masks(self.point_labels, masks)
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
        return f"FreeResult({self.kind}, {len(self.points)} points, size {self.size})"


def free_boolean(c: Structure, kind: str, bound: int | None = None) -> FreeResult:
    """The free Boolean algebra on c for the given model class.

    Points are the two-valued models of the class: upper sets (monotone maps
    to 2), filters (flat models and meet-homs), prime filters (lattice homs),
    or disjunctive filters (disjunctive homs).
    """
    sp = spectrum(c, kind, bound)
    return FreeResult(c, kind, sp.points, sp.labels, sp.basics)


def _is_flat_model(mapping, src: Structure, b: Structure) -> bool:
    # Two equations on top of monotonicity: the images cover the top, and
    # binary meets of images are the joins of images of common lower bounds.
    for i in range(src.n):
        for j in bits(src.base.up[i]):
            if not b.leq(mapping[i], mapping[j]):
                return False
    if b.join_of(mapping) != b.top:
        return False
    for x in range(src.n):
        for y in range(x, src.n):
            common = src.base.dn[x] & src.base.dn[y]
            rhs = b.join_of(mapping[d] for d in bits(common))
            if b.meet[mapping[x]][mapping[y]] != rhs:
                return False
    return True


def is_class_morphism(mapping, src: Structure, tgt: Structure, kind: str) -> bool:
    """Membership in the model class that the free kind is free for."""
    if kind == "poset-monotone":
        return _satisfies_kind(mapping, src, tgt, "monotone")
    if kind == "poset-flat":
        return _is_flat_model(mapping, src, tgt)
    if kind in _HOM_KIND_OF:
        return _satisfies_kind(mapping, src, tgt, _HOM_KIND_OF[kind])
    raise InputFormatError(f"unknown free kind {kind!r}")


def universal_property_check(fr: FreeResult, atom_bound: int = 3
                             ) -> tuple[bool, dict | None]:
    """Verify the universal property against all powerset targets up to a bound.

    For B = powerset of k atoms, Boolean homs out of the free algebra
    correspond to maps from the k atoms to the spectrum points; composing with
    the unit must hit each class morphism c -> B exactly once.
    """
    c = fr.source
    npts = len(fr.points)
    for k in range(1, atom_bound + 1):
        b = powerset_structure(k)
        wanted = sorted(
            m for m in itertools.product(range(b.n), repeat=c.n)
            if is_class_morphism(m, c, b, fr.kind))
        got = []
        for phi in itertools.product(range(npts), repeat=k):
            comp = []
            for i in range(c.n):
                e = 0
                for t in range(k):
                    if fr.unit_masks[i] >> phi[t] & 1:
                        e |= 1 << t
                comp.append(e)
            got.append(tuple(comp))
        got.sort()
        if len(set(got)) != len(got):
            dup = next(g for i, g in enumerate(got) if i and got[i - 1] == g)
            return False, {"atoms": k, "duplicate": list(dup)}
        if got != wanted:
            missing = sorted(set(wanted) - set(got))
            extra = sorted(set(got) - set(wanted))
            return False, {"atoms": k,
                           "missing": [list(m) for m in missing],
                           "extra": [list(m) for m in extra]}
    return True, None


def free_point_map(f: StructureMorphism, kind: str,
                   fr_src: FreeResult, fr_tgt: FreeResult) -> tuple[int, ...]:
    """The spectrum map induced by f: points of the target free structure map
    to points of the source one by inverse image."""
    return inverse_image_map(f, fr_src.points.masks, fr_tgt.points.masks)


def induced_boolean_hom(f: StructureMorphism, kind: str, fr_src: FreeResult,
                        fr_tgt: FreeResult) -> tuple[int, ...]:
    """The Boolean hom Free(source) -> Free(target) induced by f, as a map of
    powerset masks (valid whenever both frees stay un-materialized too)."""
    if len(fr_src.points) > 12:
        raise CarrierTooLarge("induced hom table would exceed 2^12 entries")
    pm = free_point_map(f, kind, fr_src, fr_tgt)
    npts_t = len(fr_tgt.points)
    out = []
    for s in range(1 << len(fr_src.points)):
        e = 0
        for q in range(npts_t):
            if s >> pm[q] & 1:
                e |= 1 << q
        out.append(e)
    return tuple(out)


def _uppers_substructure(b: Structure, trace_rows: list[int], primes: list[int]
                         ) -> tuple[Structure, list[int], dict[int, int], list[int]]:
    """The sublattice of trace-upper elements of a Boolean algebra b.

    trace_rows[k] = mask of primes above prime k in the trace preorder.
    Elements are represented by their atom masks; returns the substructure,
    its sorted mask list (aligned with its element indices), the mask ->
    b-element lookup, and the list of upper b-elements.
    """
    atoms = b.atoms()
    atom_of_prime = []
    for pm in primes:
        least = b.base.minimal_mask(pm)
        atom_of_prime.append(least.bit_length() - 1)
    am = []
    for x in range(b.n):
        m = 0
        for t, a in enumerate(atoms):
            if b.leq(a, x):
                m |= 1 << t
        am.append(m)
    uppers = []
    for x in range(b.n):
        ok = True
        for k in range(len(primes)):
            if not b.leq(atom_of_prime[k], x):
                continue
            for k2 in bits(trace_rows[k]):
                if not b.leq(atom_of_prime[k2], x):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            uppers.append(x)
    sub_masks = sorted(am[x] for x in uppers)
    sub = structure_from_closed_masks([f"t{t}" for t in range(len(atoms))], sub_masks)
    back = {am[x]: x for x in uppers}
    return sub, sub_masks, back, uppers


def recognize_free_boolean(i: StructureMorphism, duality_kind: str
                           ) -> tuple[bool, dict | None]:
    """Decide whether i: c -> B exhibits B as the free Boolean algebra on c.

    The criterion compares the image of i with the canonical subset of B cut
    out by the trace order on prime filters: indecomposable upper elements
    (msl), all upper elements (dlat), or upper elements whose upper covers
    admit disjoint upper refinements (ddlat).
    """
    if duality_kind not in _HOM_KIND_OF:
        raise KindMismatch(f"recognition supports msl/dlat/ddlat, not {duality_kind!r}")
    hom_kind = _HOM_KIND_OF[duality_kind]
    b = i.target
    if b.kind != "boolean-algebra":
        raise KindMismatch("recognition target must be a boolean algebra")
    if not _satisfies_kind(i.map, i.source, b, hom_kind):
        raise KindMismatch(f"map is not a {hom_kind}")
    if len(set(i.map)) != i.source.n:
        raise NotInjective("map is not injective")
    primes = list(prime_filters(b).masks)
    traces = []
    for pm in primes:
        tr = 0
        for cidx in range(i.source.n):
            if pm >> i.map[cidx] & 1:
                tr |= 1 << cidx
        traces.append(tr)
    if len(set(traces)) != len(traces):
        # the trace comparison must be a partial order on the primes; for a
        # genuine unit the primes biject with the spectrum points via their
        # traces, so a repeat means b has primes the source cannot separate
        return False, {"duplicate-trace": True}
    trace_rows = inclusion_rows(traces)
    sub, sub_masks, back, uppers = _uppers_substructure(b, trace_rows, primes)
    if duality_kind == "dlat":
        target = set(uppers)
    elif duality_kind == "msl":
        mask = indecomposable_elements(sub).mask
        target = {back[sub_masks[j]] for j in bits(mask)}
    else:
        mask = disjunctively_compact_elements(sub).mask
        target = {back[sub_masks[j]] for j in bits(mask)}
    image = set(i.map)
    if image == target:
        return True, None
    return False, {
        "missing": sorted(b.labels[x] for x in target - image),
        "extra": sorted(b.labels[x] for x in image - target),
    }


class ClosureFamily:
    """A family of rule-closed upward-closed subsets of P_fin(doubled carrier),
    each member encoded as one big int with a bit per ground subset."""

    __slots__ = ("carrier_labels", "doubled_labels", "members")

    def __init__(self, carrier_labels, doubled_labels, members):
        self.carrier_labels = tuple(carrier_labels)
        self.doubled_labels = tuple(doubled_labels)
        self.members = tuple(members)

    @property
    def ground_size(self) -> int:
        return 1 << len(self.doubled_labels)

    def __len__(self) -> int:
        return len(self.members)


class OracleResult:
    """Presented frame from the generators-and-relations oracle."""

    __slots__ = ("family", "structure", "unit")

    def __init__(self, family: ClosureFamily, structure: Structure, unit):
        self.family = family
        self.structure = structure
        self.unit = tuple(unit)


def thm22_oracle(d: Structure, bound: int | None = None) -> OracleResult:
    """Present the free Boolean algebra on a distributive lattice by
    generators and relations, independently of any spectrum.

    Works over ground subsets of the doubled carrier (second copy = starred).
    A member of the frame is an upward-closed family closed under the
    covering rules induced by the defining sequents (both directions of the
    meet and join biconditionals, the bounds, and the complement axioms);
    the frame is the join-closure (join = closure of union) of the closures
    of principal families, and the unit sends d to the closure of the
    principal family at {d}.
    """
    d.require("distributive-lattice", "thm22_oracle")
    cap = 3 if bound is None else bound
    if d.n > cap:
        raise OracleBoundExceeded(
            f"oracle bound is {cap}, carrier has {d.n} elements")
    nn = d.n
    m = 2 * nn
    ground = 1 << m
    fullbits = (1 << ground) - 1
    contains = [0] * m
    for g in range(ground):
        for e in bits(g):
            contains[e] |= 1 << g
    without = [fullbits ^ a for a in contains]

    def padded(i_bits: int, e: int) -> int:
        # bit g set iff (g | {e}) is in the family
        width = 1 << e
        inside = i_bits & contains[e]
        return inside | (inside >> width)

    seeds = contains[d.bottom]
    for e in range(nn):
        seeds |= contains[e] & contains[nn + e]
    pairs = [(a, b) for a in range(nn) for b in range(a, nn)]

    def close(i_bits: int) -> int:
        i_bits |= seeds
        while True:
            prev = i_bits
            for e in range(m):
                i_bits |= (i_bits & without[e]) << (1 << e)
            i_bits |= padded(i_bits, d.top)
            for e in range(nn):
                i_bits |= padded(i_bits, e) & padded(i_bits, nn + e)
            for a, b in pairs:
                j, w = d.join[a][b], d.meet[a][b]
                i_bits |= contains[j] & padded(i_bits, a) & padded(i_bits, b)
                i_bits |= contains[a] & contains[b] & padded(i_bits, w)
                # converse directions of the same biconditionals: a member
                # may drop a join above one of its elements or a meet below
                # two of its elements
                i_bits |= contains[a] & padded(i_bits, j)
                i_bits |= contains[b] & padded(i_bits, j)
                i_bits |= contains[w] & padded(padded(i_bits, a), b)
            if i_bits == prev:
                return i_bits

    principals = sorted({close(1 << g) for g in range(ground)} | {close(0)})
    members = set(principals)
    frontier = list(principals)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                z = close(x | y)
                if z not in members:
                    members.add(z)
                    nxt.append(z)
        frontier = nxt
    members = sorted(members)
    index = {v: k for k, v in enumerate(members)}
    n = len(members)
    up = inclusion_rows(members)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            meet[a][b] = meet[b][a] = index[close(members[a] & members[b])]
            join[a][b] = join[b][a] = index[close(members[a] | members[b])]
    labels = [f"m{k}" for k in range(n)]
    structure = classify(Poset(labels, up))
    unit = [index[close(1 << (1 << e))] for e in range(nn)]
    doubled = list(d.labels) + [x + "*" for x in d.labels]
    family = ClosureFamily(d.labels, doubled, members)
    return OracleResult(family, structure, unit)


def _lattice_closure(npoints: int, seed_masks) -> list[int]:
    full = (1 << npoints) - 1
    members = set(seed_masks) | {0, full}
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                for z in (x | y, x & y):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    return sorted(members)


def _free_dlat(s: Structure, kind: str, bound: int | None) -> FreeResult:
    sp = spectrum(s, kind, bound)
    element_masks = _lattice_closure(len(sp.points), sp.basics)
    if len(element_masks) > MATERIALIZE_CAP:
        raise CarrierTooLarge("free distributive lattice exceeds the size cap")
    return FreeResult(s, f"dlat-on-{kind}", sp.points, sp.labels, sp.basics,
                      element_masks)


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
    element_masks = p.lower_set_masks(bound)
    if len(element_masks) > MATERIALIZE_CAP:
        raise CarrierTooLarge("free frame exceeds the size cap")
    pts = [1 << i for i in range(p.n)]
    unit_masks = [p.dn[i] for i in range(p.n)]
    return FreeResult(classify(p), "frame-on-poset", SetFamily(p.n, pts),
                      list(p.labels), unit_masks, element_masks)


def frame_supercompacts(fr: FreeResult) -> list[int]:
    """Element indices of the supercompact (nonzero join-prime) frame elements.

    For a lower-set frame these are exactly the masks with a unique maximal
    point (the principal lower sets); supercompact_elements cross-checks this
    against the covering definition at small scale.
    """
    p = fr.source.base
    out = []
    for idx, mask in enumerate(fr.element_masks):
        if popcount(p.maximal_mask(mask)) == 1:
            out.append(idx)
    return out


def supercompact_elements(s: Structure) -> Subset:
    """Elements a != 0 with: a <= join(S) implies a <= some member of S.

    Binary joins suffice in a finite lattice; the empty cover rules out the
    bottom.
    """
    out = 0
    for a in range(s.n):
        if a == s.bottom:
            continue
        good = True
        for x in range(s.n):
            for y in range(x, s.n):
                j = s.join[x][y]
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
