import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BRUTE_HOM_KIND,
    brute_class_maps,
    brute_class_member,
    brute_disjunctively_compact,
    brute_oracle_members,
    brute_recognize_free_boolean,
    brute_universal_check,
    hom_kind_supported,
    lower_set_lattice,
)
from ordua import free, structures
from ordua.corpus import all_posets, all_posets_up_to
from ordua.dualities import dual_morphism
from ordua.errors import (
    CarrierTooLarge,
    KindMismatch,
    NotAFilterImage,
    NotInjective,
    OracleBoundExceeded,
)
from ordua.free import (
    FREE_KINDS,
    MATERIALIZE_CAP,
    free_boolean,
    free_dlat_on_ddlat,
    free_dlat_on_msl,
    free_frame_on_poset,
    frame_supercompacts,
    induced_boolean_hom,
    recognize_free_boolean,
    supercompact_elements,
    thm22_oracle,
    universal_property_check,
)
from ordua.setlattices import powerset_structure
from ordua.spectra import Spectrum, model_class, spectrum
from ordua.structures import (
    KIND_RANK,
    KINDS,
    MORPHISM_KINDS,
    SetFamily,
    StructureMorphism,
    _monotone_maps,
    classify,
    disjunctively_compact_elements,
    enumerate_homomorphisms,
    filters,
    is_homomorphism,
    indecomposable_elements,
    order_isomorphism,
    structure_isomorphism,
    upper_sets,
    validate_poset,
)

posets_small = st.sampled_from(all_posets_up_to(4))


def chain(n: int):
    labels = [str(i) for i in range(n)]
    return classify(validate_poset(labels,
                                   [(str(i), str(i + 1)) for i in range(n - 1)]))


def antichain(n: int):
    return classify(validate_poset([f"x{i}" for i in range(n)], []))


def diamond():
    return classify(validate_poset(["0", "a", "b", "1"],
                                   [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]))


def m3():
    return classify(validate_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]))


def test_is_class_morphism_rejects_kinds_without_the_class_homs():
    # the antichain has no top, so it has no meet-homs, lattice homs or
    # disjunctive homs out of it
    for kind in ("msl", "dlat", "ddlat"):
        with pytest.raises(KindMismatch):
            free.is_class_morphism((1, 1), antichain(2), chain(2), kind)
    assert free.is_class_morphism((0, 1), antichain(2), chain(2), "poset-monotone")


def test_class_and_duality_gates_raise_the_morphism_kind_messages():
    # the gate's message when a side lacks the class's kind, else "map is
    # not a <kind>" for a map that breaks a law; always KindMismatch itself
    two, b1 = chain(2), powerset_structure(1)
    a2, d4, n = antichain(2), diamond(), m3()  # no top; Boolean; not dd
    point = classify(validate_poset(["x"], []))
    needs = {"msl": (a2, "meet-hom needs meet-semilattices"),
             "dlat": (a2, "lattice-hom needs bounded lattices"),
             "ddlat": (n, "disjunctive-hom needs dd-lattices")}
    cases = []
    for kind, (src, message) in needs.items():
        hom_kind = model_class(kind).hom_kind
        lacking = StructureMorphism(src, b1, [1] * src.n, "monotone")
        # a and b go to the top, their meet 0 to the bottom
        breaking = StructureMorphism(d4, b1, (0, 1, 1, 1), "monotone")
        cases += [
            (free.is_class_morphism, ([1] * src.n, src, two, kind), message),
            (dual_morphism, (lacking, kind), message),
            (dual_morphism, (breaking, kind), f"map is not a {hom_kind}"),
            (recognize_free_boolean, (lacking, kind), message),
            (recognize_free_boolean, (breaking, kind), f"map is not a {hom_kind}")]
    # x -> p is monotone but not flat: up(q) pulls back to the empty set
    unflat = StructureMorphism(point, a2, (0,), "monotone")
    cases.append((dual_morphism, (unflat, "poset"), "map is not a flat"))
    for call, args, message in cases:
        with pytest.raises(KindMismatch) as info:
            call(*args)
        assert (type(info.value), str(info.value)) == (KindMismatch, message)


def assert_verdicts_match_the_references(src, tgt, kinds):
    for kind in kinds:
        for m in itertools.product(range(tgt.n), repeat=src.n):
            if kind in MORPHISM_KINDS:
                got = is_homomorphism(StructureMorphism(src, tgt, m, kind))
            else:
                got = free.is_class_morphism(m, src, tgt, kind)
            assert got == brute_class_member(m, src, tgt, kind), (kind, m)


def test_morphism_tests_agree_with_the_references_on_every_map():
    # every map, monotone or not, under every kind the carriers support;
    # each structure of at most 3 elements is also taken at its weaker kinds
    small = [s.with_kind(k) for s in map(classify, all_posets_up_to(3))
             for k in KINDS if KIND_RANK[k] <= s.rank()]
    for src in small:
        for tgt in small:
            kinds = [k for k in MORPHISM_KINDS if hom_kind_supported(src, tgt, k)]
            kinds += [k for k in FREE_KINDS if hom_kind_supported(
                src, tgt, BRUTE_HOM_KIND.get(k, "monotone"))]
            assert_verdicts_match_the_references(src, tgt, kinds)
    assert_verdicts_match_the_references(
        powerset_structure(2), powerset_structure(3), ["boolean-hom"])
    # a and b meet above the bottom, so a disjunctive hom need not keep a | b
    raised_diamond = classify(validate_poset(
        ["0", "z", "a", "b", "1"],
        [("0", "z"), ("z", "a"), ("z", "b"), ("a", "1"), ("b", "1")]))
    assert_verdicts_match_the_references(
        raised_diamond, diamond(),
        ["lattice-hom", "disjunctive-hom", "dlat", "ddlat", "poset-flat"])


# --------------------------------------------------------------- frozen sizes

def test_free_boolean_sizes():
    a2 = antichain(2)
    assert free_boolean(a2, "poset-monotone").size == 16
    assert free_boolean(a2, "poset-flat").size == 4
    assert free_boolean(chain(3).with_kind("meet-semilattice"), "msl").size == 8
    assert free_boolean(chain(3), "dlat").size == 4
    assert free_boolean(diamond().with_kind("dd-lattice"), "ddlat").size == 4


def test_monotone_points_are_all_upper_sets():
    a2 = antichain(2)
    fr = free_boolean(a2, "poset-monotone")
    assert sorted(fr.points.masks) == [0b00, 0b01, 0b10, 0b11]
    fl = free_boolean(a2, "poset-flat")
    assert sorted(fl.points.masks) == [0b01, 0b10]


def test_materialization_cap():
    fr = free_boolean(antichain(4), "poset-monotone")
    assert fr.size == 1 << 16 > MATERIALIZE_CAP
    with pytest.raises(CarrierTooLarge):
        fr.structure


def test_free_dlat_stops_enumerating_past_the_cap(monkeypatch):
    # 2^5 as a meet-semilattice has a free lattice of 7,581 elements
    counts = []

    def counting(up, limit=None):
        out = upper_sets(up, limit)
        counts.append(len(out))
        return out

    monkeypatch.setattr(free, "upper_sets", counting)
    with pytest.raises(CarrierTooLarge):
        free_dlat_on_msl(powerset_structure(5).with_kind("meet-semilattice"), 32)
    assert counts == [MATERIALIZE_CAP + 1]


def test_unit_is_an_order_embedding():
    for p in all_posets_up_to(3):
        c = classify(p)
        fr = free_boolean(c, "poset-monotone")
        for i in range(c.n):
            for j in range(c.n):
                inc = not fr.unit_masks[i] & ~fr.unit_masks[j]
                assert c.leq(i, j) == inc


# ------------------------------------------------------------------- oracle

def test_oracle_matches_free_on_the_four_chain():
    c4 = chain(4)
    orc = thm22_oracle(c4, bound=4)
    fb = free_boolean(c4, "dlat")
    assert orc.structure.n == fb.size == 8
    iso = order_isomorphism(orc.structure.base, fb.structure.base,
                            pins=dict(zip(orc.unit, fb.unit)))
    assert iso is not None


def test_oracle_matches_free_on_the_diamond():
    d4 = diamond()
    orc = thm22_oracle(d4, bound=4)
    fb = free_boolean(d4, "dlat")
    assert orc.structure.n == fb.size == 4
    assert order_isomorphism(orc.structure.base, fb.structure.base,
                             pins=dict(zip(orc.unit, fb.unit))) is not None


def distributive_lattices(n: int):
    rank = KIND_RANK["distributive-lattice"]
    return [s for s in map(classify, all_posets(n)) if s.rank() >= rank]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_members_match_the_full_scan(n):
    for d in distributive_lattices(n):
        assert list(thm22_oracle(d, 5).family) == brute_oracle_members(d)


def test_oracle_matches_free_on_six_element_lattices():
    lattices = distributive_lattices(6)
    assert len(lattices) == 5
    for d in lattices:
        orc = thm22_oracle(d, 6)
        fb = free_boolean(d, "dlat")
        assert orc.structure.n == fb.size
        assert order_isomorphism(orc.structure.base, fb.structure.base,
                                 pins=dict(zip(orc.unit, fb.unit))) is not None


@pytest.mark.parametrize("d", [chain(7), powerset_structure(3)], ids=["C7", "2^3"])
def test_oracle_matches_free_on_larger_lattices(d):
    orc = thm22_oracle(d, d.n)
    fb = free_boolean(d, "dlat")
    assert orc.structure.n == fb.size
    assert structure_isomorphism(orc.structure, fb.structure,
                                 dict(zip(orc.unit, fb.unit))) is not None


def test_oracle_uses_no_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not read a spectrum")

    for name in ("spectrum", "prime_filters", "free_boolean"):
        monkeypatch.setattr(free, name, refuse)
    for d in (chain(4), diamond()):
        assert list(thm22_oracle(d, 4).family) == brute_oracle_members(d)


def test_oracle_default_bound():
    with pytest.raises(OracleBoundExceeded):
        thm22_oracle(diamond())  # default bound is 3, carrier has 4 elements
    assert thm22_oracle(chain(3)).structure.n == 4


# -------------------------------------------------------- universal property

def test_universal_property_of_the_standard_frees():
    a2 = antichain(2)
    for c, kind in [(a2, "poset-monotone"), (a2, "poset-flat"),
                    (chain(3).with_kind("meet-semilattice"), "msl"),
                    (chain(3), "dlat"),
                    (diamond().with_kind("dd-lattice"), "ddlat")]:
        ok, witness = universal_property_check(free_boolean(c, kind))
        assert ok, witness


def test_universal_property_detects_a_tampered_unit():
    fr = free_boolean(chain(3), "dlat")
    swapped = list(fr.unit_masks)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    tampered = type(fr)(fr.source, fr.kind, fr.spectrum, swapped)
    ok, witness = universal_property_check(tampered)
    assert not ok
    assert witness == {"atoms": 1, "missing": [[0, 0, 1]], "extra": [[0, 1, 0]]}


def test_universal_property_detects_inseparable_points():
    # both points contain exactly the images of "1" and "2", so the two
    # atom maps to 2 compose to the same map
    fr = free_boolean(chain(3), "dlat")
    merged = type(fr)(fr.source, fr.kind, fr.spectrum, [0, 3, 3])
    assert universal_property_check(merged) == (
        False, {"atoms": 1, "duplicate": [0, 1, 1]})


def product_maps(maps, k: int) -> list[tuple[int, ...]]:
    """The k-fold products of maps into 2 as maps into 2^k, ascending: the
    j-th factor gives bit j of every image."""
    return sorted(tuple(sum(b << j for j, b in enumerate(images)) for images in zip(*factors))
                  for factors in itertools.product(maps, repeat=k))


def assert_search_matches_scan(fr):
    """On every 2^k, k = 1, 2 (and 3 on sources of at most 4 points), the
    class test on the monotone maps, the brute scan of all maps, and the
    k-fold products of the brute maps into 2 (the product theorem) agree;
    and the universal property holds."""
    c, kind = fr.source, fr.kind
    assert universal_property_check(fr, 3) == (True, None)
    into_two = brute_class_maps(c, powerset_structure(1), kind)
    for k in range(1, 3 if c.n > 4 else 4):
        b = powerset_structure(k)
        wanted = brute_class_maps(c, b, kind)
        assert sorted(filter(free._class_test(c, b, kind), _monotone_maps(c, b))) == wanted
        assert product_maps(into_two, k) == wanted


def corpus_frees(kind: str) -> list:
    """free_boolean for kind on every classified poset with at most 5 points
    whose kind its model class accepts."""
    least = KIND_RANK[model_class(kind).needs]
    return [free_boolean(s, kind) for s in map(classify, all_posets_up_to(5))
            if KIND_RANK[s.kind] >= least]


@pytest.mark.parametrize("kind", ["poset-monotone", "poset-flat"])
def test_search_matches_the_map_scan_on_small_posets(kind):
    for fr in corpus_frees(kind):
        assert_search_matches_scan(fr)


@pytest.mark.parametrize("kind,least", [("msl", "meet-semilattice"),
                                        ("dlat", "distributive-lattice"),
                                        ("ddlat", "dd-lattice")])
def test_search_matches_the_map_scan_on_small_algebras(kind, least):
    assert model_class(kind).needs == least
    frees = corpus_frees(kind)
    assert frees
    for fr in frees:
        assert_search_matches_scan(fr)


def test_universal_property_check_reads_no_spectrum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the check must not read a spectrum")

    fr = free_boolean(diamond(), "dlat")
    for name in ("spectrum", "free_boolean"):
        monkeypatch.setattr(free, name, refuse)
    assert universal_property_check(fr, 3) == (True, None)
    assert_search_matches_scan(fr)


def test_universal_property_check_builds_its_class_test_only_into_two(monkeypatch):
    targets, real = [], free._class_test

    def recording(src, tgt, kind):
        targets.append(tgt.n)
        return real(src, tgt, kind)

    monkeypatch.setattr(free, "_class_test", recording)
    for c, kind in [(antichain(2), "poset-monotone"), (chain(3), "poset-flat"),
                    (chain(3).with_kind("meet-semilattice"), "msl"),
                    (diamond(), "dlat"), (diamond().with_kind("dd-lattice"), "ddlat")]:
        fr = free_boolean(c, kind)
        for atom_bound in range(5):
            targets.clear()
            assert universal_property_check(fr, atom_bound) == (True, None)
            assert targets == ([2] if atom_bound else [])


def mutations(fr) -> list:
    """fr with its unit changed, as far as fr's size allows: the images of
    two source elements swapped, the first and last unit columns (points)
    swapped, the last point merged into the first, and the last point
    dropped from the spectrum."""
    units, npts = fr.unit_masks, len(fr.spectrum.points)
    out = []

    def changed(masks, spec=fr.spectrum):
        out.append(type(fr)(fr.source, fr.kind, spec, masks))

    if len(set(units)) > 1:
        i, j = units.index(min(units)), units.index(max(units))
        swapped = list(units)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        changed(swapped)
    last = npts - 1
    if last > 0:
        changed([u & ~(1 | 1 << last) | u >> last & 1 | (u & 1) << last for u in units])
        changed([u & ~(1 << last) | (u & 1) << last for u in units])
    if last >= 0:
        kept = SetFamily(fr.source.n, fr.spectrum.points.masks[:last])
        changed([u & ~(1 << last) for u in units], Spectrum(kept, str))
    return out


@pytest.mark.parametrize("kind", FREE_KINDS)
def test_universal_property_check_matches_the_definition(kind):
    """Verdict and witness equal brute_universal_check's on every corpus free
    and on its mutations, at atom bounds 0 to 3 (0 to 2 on 5-point sources,
    where the brute scan of all 8^5 maps into 2^3 takes about 0.1 s each)."""
    verdicts = set()
    for fr in corpus_frees(kind):
        for case in [fr] + mutations(fr):
            for atom_bound in range(4 if fr.source.n <= 4 else 3):
                verdict = universal_property_check(case, atom_bound)
                assert verdict == brute_universal_check(case, atom_bound)
                verdicts.add(verdict[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("source,kind", [
    (chain(6), "dlat"), (chain(7), "dlat"), (powerset_structure(3), "dlat"),
    (chain(6), "poset-monotone")], ids=["C6", "C7", "2^3", "C6-monotone"])
def test_universal_property_at_three_atoms_on_larger_sources(source, kind):
    fr = free_boolean(source, kind)
    for atom_bound in (3, 4):
        start = time.perf_counter()
        assert universal_property_check(fr, atom_bound) == (True, None)
        # under 1 ms once the check reads 2^k off 2; a scan of all (2^3)^n
        # maps takes 5 s on C7 and minutes on 2^3
        assert time.perf_counter() - start < 2


# ----------------------------------------------------------- induced homs

def test_induced_hom_is_natural_in_the_unit():
    f = StructureMorphism(chain(2), chain(3), (0, 2), "lattice-hom")
    fr_src = free_boolean(f.source, "dlat")
    fr_tgt = free_boolean(f.target, "dlat")
    tab = induced_boolean_hom(f, fr_src, fr_tgt)
    for i in range(f.source.n):
        assert tab[fr_src.unit_masks[i]] == fr_tgt.unit_masks[f.map[i]]


def test_induced_hom_is_a_boolean_hom():
    f = StructureMorphism(chain(2), chain(3), (0, 2), "lattice-hom")
    fr_src = free_boolean(f.source, "dlat")
    fr_tgt = free_boolean(f.target, "dlat")
    tab = induced_boolean_hom(f, fr_src, fr_tgt)
    h = StructureMorphism(fr_src.structure, fr_tgt.structure, tab, "boolean-hom")
    assert is_homomorphism(h)


def test_induced_hom_is_functorial():
    f = StructureMorphism(chain(2), chain(3), (0, 2), "lattice-hom")
    g = StructureMorphism(chain(3), chain(4), (0, 1, 3), "lattice-hom")
    gf = StructureMorphism(chain(2), chain(4), (0, 3), "lattice-hom")
    frs = {n: free_boolean(chain(n), "dlat") for n in (2, 3, 4)}
    tf = induced_boolean_hom(f, frs[2], frs[3])
    tg = induced_boolean_hom(g, frs[3], frs[4])
    tgf = induced_boolean_hom(gf, frs[2], frs[4])
    assert all(tgf[s] == tg[tf[s]] for s in range(len(tgf)))


def test_induced_hom_point_cap():
    f = StructureMorphism(antichain(4), antichain(4), (0, 1, 2, 3), "monotone")
    fr = free_boolean(antichain(4), "poset-monotone")  # 16 points
    with pytest.raises(CarrierTooLarge):
        induced_boolean_hom(f, fr, fr)


def test_induced_hom_needs_the_inverse_images_of_primes_to_be_primes():
    # the constant map to the bottom pulls every prime filter back to the
    # empty set, which is not a prime filter
    c3 = chain(3)
    fr = free_boolean(c3, "dlat")
    with pytest.raises(NotAFilterImage):
        induced_boolean_hom(StructureMorphism(c3, c3, (0, 0, 0), "monotone"), fr, fr)


# ------------------------------------------------------------- recognition

def test_recognition_accepts_the_canonical_units():
    for c, kind in [(chain(3).with_kind("meet-semilattice"), "msl"),
                    (chain(3), "dlat"),
                    (diamond().with_kind("dd-lattice"), "ddlat")]:
        fr = free_boolean(c, kind)
        ok, witness = recognize_free_boolean(
            fr.unit_morphism({"msl": "meet-hom", "dlat": "lattice-hom",
                              "ddlat": "disjunctive-hom"}[kind]), kind)
        assert ok, witness


def test_recognition_reads_the_kept_lattice_verdicts(monkeypatch):
    # the chain is classified distributive and its free Boolean algebra is a
    # lattice of up-sets, so the lattice-hom gate scans no pair of rows
    fr = free_boolean(chain(11), "dlat")

    def refuse(rows):
        raise AssertionError("scanned the down-rows for meets")

    monkeypatch.setattr(structures, "_closed", refuse)
    assert recognize_free_boolean(fr.unit_morphism("lattice-hom"), "dlat") == (True, None)


def test_recognition_rejects_the_wrong_subalgebra():
    # the identity embeds 2^k in itself as a meet-semilattice, but the free
    # Boolean algebra on the msl 2^k has a point per filter, 2^(2^k)
    # elements; the image holds elements that are not join-irreducible
    # upper elements (the empty set and the non-singleton ones)
    for k, extra in [(2, ["{p0,p1}", "{}"]),
                     (3, ["{p0,p1,p2}", "{p0,p1}", "{p0,p2}", "{p1,p2}", "{}"])]:
        b = powerset_structure(k)
        ident = StructureMorphism(b.with_kind("meet-semilattice"), b,
                                  range(b.n), "meet-hom")
        ok, witness = recognize_free_boolean(ident, "msl")
        assert not ok
        assert witness == {"missing": [], "extra": extra}


def test_recognition_rejects_inseparable_primes():
    # 0 -> bottom, 1 -> top of 2^2: both primes trace back to {1}, so the
    # trace comparison is not a partial order and 2^2 is not free on the
    # 2-chain (the free algebra has a single prime)
    b = powerset_structure(2)
    f = StructureMorphism(chain(2), b, (0, 3), "lattice-hom")
    ok, witness = recognize_free_boolean(f, "dlat")
    assert not ok and witness == {"duplicate-trace": True}


def test_recognition_requires_boolean_target():
    c = chain(3)
    unit = StructureMorphism(c, c, (0, 1, 2), "lattice-hom")
    with pytest.raises(KindMismatch):
        recognize_free_boolean(unit, "dlat")


def test_recognition_requires_injectivity():
    b = powerset_structure(1)
    f = StructureMorphism(chain(2).with_kind("meet-semilattice"), b,
                          (1, 1), "meet-hom")
    with pytest.raises(NotInjective):
        recognize_free_boolean(f, "msl")


def test_recognition_requires_the_right_hom_kind():
    b = powerset_structure(1)
    # monotone but not meet-preserving: a and b collapse to the top, their
    # meet 0 stays at the bottom
    f = StructureMorphism(diamond(), b, (0, 1, 1, 1), "monotone")
    with pytest.raises(KindMismatch):
        recognize_free_boolean(f, "dlat")


RECOGNITION_CLASSES = {"msl": ("meet-hom", "meet-semilattice"),
                       "dlat": ("lattice-hom", "distributive-lattice"),
                       "ddlat": ("disjunctive-hom", "dd-lattice")}


def compactness_lattices():
    """The down-set lattices of every poset on at most 6 points, then the
    free distributive lattices on every dd-lattice on at most 5."""
    out = [lower_set_lattice(p) for p in all_posets_up_to(6)]
    return out + [free_dlat_on_ddlat(d).structure for d in map(classify, all_posets_up_to(5))
                  if d.rank() >= KIND_RANK["dd-lattice"]]


def recognition_homs():
    """(kind, f) for every hom f of the class's kind from each corpus
    structure of the class on at most 4 points into 2^1..2^4."""
    powers = [powerset_structure(k) for k in range(1, 5)]
    corpus = list(map(classify, all_posets_up_to(4)))
    return [(kind, f) for kind, (hom_kind, least) in RECOGNITION_CLASSES.items()
            for c in corpus if c.rank() >= KIND_RANK[least]
            for b in powers for f in enumerate_homomorphisms(c, b, hom_kind)]


def recognition_verdict(f, kind):
    try:
        return recognize_free_boolean(f, kind)
    except NotInjective:
        return "NotInjective"


def test_compactness_recognition_and_boolean_homs_are_pinned():
    # the SHA-256 of disjunctively_compact_elements on compactness_lattices,
    # of the verdict and witness of recognize_free_boolean on
    # recognition_homs, and of the Boolean homs between every two of
    # 2^0..2^4, fed in order: the outputs must not depend on how they are
    # computed
    digest = hashlib.sha256()
    for s in compactness_lattices():
        digest.update(repr((s.labels, s.base.up, disjunctively_compact_elements(s))).encode())
    for kind, f in recognition_homs():
        digest.update(repr((kind, f.source.labels, f.source.base.up, f.target.n, f.map,
                            recognition_verdict(f, kind))).encode())
    powers = [powerset_structure(k) for k in range(5)]
    for a, b in itertools.product(powers, repeat=2):
        homs = enumerate_homomorphisms(a, b, "boolean-hom")
        digest.update(repr((a.n, b.n, [h.map for h in homs])).encode())
    assert digest.hexdigest() == (
        "31380ed87f64aed0e44f5e8a6081174c64750a51fda3646004d259d2b5d689f6")


def test_compactness_matches_the_table_reference():
    for s in compactness_lattices():
        assert disjunctively_compact_elements(s).mask == brute_disjunctively_compact(s), s.labels


def test_recognition_matches_the_sublattice_reference():
    seen = set()
    for kind, f in recognition_homs():
        verdict = recognition_verdict(f, kind)
        if verdict != "NotInjective":
            assert verdict == brute_recognize_free_boolean(f, kind), (kind, f.map)
            seen.add((kind, verdict[0], "duplicate-trace" in (verdict[1] or {})))
    # each class gives both verdicts, and repeated traces occur
    assert {(kind, ok) for kind, ok, _ in seen} == set(
        itertools.product(RECOGNITION_CLASSES, (True, False)))
    assert any(dup for _, _, dup in seen)


# ------------------------------------------------------- lattice/frame frees

def test_free_dlat_on_msl_of_m3():
    fr = free_dlat_on_msl(m3())
    assert fr.size == 10
    sub = indecomposable_elements(fr.structure)
    assert sorted(sub.members()) == sorted(fr.unit)
    # the unit embeds M3 order-isomorphically onto the indecomposables
    c = fr.source
    for i in range(c.n):
        for j in range(c.n):
            assert c.leq(i, j) == fr.structure.leq(fr.unit[i], fr.unit[j])


def test_free_dlat_on_a_lattice_changes_nothing():
    fr = free_dlat_on_ddlat(chain(3).with_kind("dd-lattice"))
    assert fr.size == 3 and fr.unit == (0, 1, 2)


@given(st.sampled_from(all_posets_up_to(3)))
@settings(max_examples=25)
def test_free_dlat_on_msl_universal_count(p):
    # homs out of the free lattice into 2 = meet-homs of the msl into 2,
    # i.e. lattice primes of the free structure correspond to msl filters
    d = lower_set_lattice(p).with_kind("meet-semilattice")
    fr = free_dlat_on_msl(d)
    assert len(fr.points) == len(filters(d))


def test_free_frame_on_chain():
    fr = free_frame_on_poset(chain(3).base)
    assert fr.size == 4
    assert fr.unit == (1, 2, 3)
    assert frame_supercompacts(fr) == [1, 2, 3]


def test_free_frame_on_antichain():
    fr = free_frame_on_poset(antichain(3).base)
    assert fr.size == 8
    assert len(frame_supercompacts(fr)) == 3


def test_free_frame_stops_enumerating_past_the_cap(monkeypatch):
    # the 24-point antichain has 2^24 lower sets
    counts = []

    def counting(up, limit=None):
        out = upper_sets(up, limit)
        counts.append(len(out))
        return out

    monkeypatch.setattr(free, "upper_sets", counting)
    with pytest.raises(CarrierTooLarge, match="free frame exceeds the size cap"):
        free_frame_on_poset(antichain(24).base, 24)
    assert counts == [MATERIALIZE_CAP + 1]
    with pytest.raises(CarrierTooLarge, match="carrier <= 24, got 25"):
        free_frame_on_poset(antichain(25).base, 24)


@pytest.mark.parametrize("kind", ["poset-flat", "msl", "dlat", "ddlat"])
def test_filter_spectrum_points_are_labelled_by_their_least_element(kind):
    rank = KIND_RANK[{"poset-flat": "poset", "msl": "meet-semilattice",
                      "dlat": "distributive-lattice", "ddlat": "dd-lattice"}[kind]]
    for s in map(classify, all_posets_up_to(5)):
        if s.rank() < rank:
            continue
        sp = spectrum(s, kind)
        members = [[y for y in range(s.n) if m >> y & 1] for m in sp.points]
        least = [next(x for x in ys if all(s.leq(x, y) for y in ys)) for ys in members]
        assert sp.labels == tuple("^" + s.labels[x] for x in least)


@given(posets_small)
@settings(max_examples=25)
def test_frame_supercompacts_match_generic_definition(p):
    fr = free_frame_on_poset(p)
    fast = set(frame_supercompacts(fr))
    generic = set(supercompact_elements(fr.structure).members())
    assert fast == generic
