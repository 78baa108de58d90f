import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_disjunctively_compact,
    brute_upper_sets,
    lower_set_lattice,
    shuffled,
)
from ordua import dualities, setlattices, spectra, structures
from ordua.cli import builtin_structure
from ordua.corpus import all_posets, all_posets_up_to, random_poset
from ordua.errors import CarrierTooLarge, KindMismatch, NotPriestley
from ordua.dualities import (
    DualityResult,
    coherent_of_priestley,
    ddlat_spectrum,
    dlat_of_priestley,
    dual_morphism,
    extended_image_check,
    msl_spectrum,
    poset_spectrum,
    priestley_of_coherent,
    priestley_of_dlat,
    roundtrip_check,
    spectrum_for,
    stone_spectrum,
    upper_elements,
)
from ordua.free import FREE_KINDS, MATERIALIZE_CAP, free_boolean, free_frame_on_poset
from ordua.setlattices import Birkhoff, powerset_structure
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    alexandrov_space,
    generate_topology,
    patch_space,
    preorder_coreflection,
    priestley_check,
    specialization_preorder,
)
from ordua.spectra import Spectrum, spectrum
from ordua.structures import (
    KIND_RANK,
    Poset,
    SetFamily,
    StructureMorphism,
    classify,
    disjunctively_compact_elements,
    inclusion_rows,
    prime_filters,
    validate_poset,
)
from ordua.structures import bits

posets_small = st.sampled_from(all_posets_up_to(4))
posets_5 = st.sampled_from(all_posets(5))

# the least structure kind each free kind needs
LEAST_KIND = {"poset-monotone": "poset", "poset-flat": "poset",
              "msl": "meet-semilattice", "dlat": "distributive-lattice",
              "ddlat": "dd-lattice"}


def chain(n: int):
    labels = [str(i) for i in range(n)]
    return classify(validate_poset(labels,
                                   [(str(i), str(i + 1)) for i in range(n - 1)]))


def discrete_ordered(p) -> PreorderedSpace:
    space = FiniteSpace(list(p.labels), range(1 << p.n))
    return PreorderedSpace(space, Preorder(list(p.labels), p.up))


# ----------------------------------------------------------------- spectra

def test_stone_spectrum_of_three_chain():
    sp = stone_spectrum(chain(3))
    assert sorted(sp.opens) == [0b00, 0b10, 0b11]


def test_priestley_of_three_chain_embedding():
    res = priestley_of_dlat(chain(3))
    assert res.n_points == 2
    assert res.spectrum.basics == (0b00, 0b10, 0b11)  # 0 -> {}, mid -> one point, 1 -> all
    assert priestley_check(res.space).ok


def test_spectra_carry_inclusion_order():
    for p in all_posets_up_to(3):
        c = classify(p)
        res = poset_spectrum(p)
        pts = res.spectrum.points.masks
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert res.space.preorder.leq(i, j) == (not pts[i] & ~pts[j])


@given(posets_small)
@settings(max_examples=30)
def test_spectrum_space_is_priestley(p):
    res = poset_spectrum(p)
    assert priestley_check(res.space).ok


def test_embedding_reflects_order():
    # x <= y in the lattice iff the basic set of x is contained in that of y
    for p in all_posets_up_to(3):
        d = lower_set_lattice(p)
        res = priestley_of_dlat(d)
        for i in range(d.n):
            for j in range(d.n):
                inc = not res.spectrum.basics[i] & ~res.spectrum.basics[j]
                assert d.leq(i, j) == inc


def test_spectrum_views_built_on_first_read_equal_eager_ones():
    """Labels and basic sets, built on first read, against references
    computed here from the points, for every kind each corpus structure of
    at most 5 elements supports, and for the free frame's singletons."""
    kinds = set()
    for c in map(classify, all_posets_up_to(5)):
        for kind in FREE_KINDS:
            if c.rank() < KIND_RANK[LEAST_KIND[kind]]:
                continue
            kinds.add(kind)
            sp = spectrum(c, kind)
            masks = sp.points.masks
            if kind == "poset-monotone":
                labels = ["{" + ",".join(c.labels[i] for i in bits(m)) + "}"
                          for m in masks]
            else:
                labels = ["^" + c.labels[c.base.up.index(m)] for m in masks]
            basics = [sum(1 << k for k, m in enumerate(masks) if m >> i & 1)
                      for i in range(c.n)]
            assert sp.labels == tuple(labels) and sp.basics == tuple(basics)
        frame = free_frame_on_poset(c.base)
        assert frame.spectrum.labels == c.labels
        assert frame.spectrum.basics == tuple(1 << i for i in range(c.n))
    assert kinds == set(FREE_KINDS)


def test_point_counts_build_no_labels(monkeypatch):
    def refuse(*args):
        raise AssertionError("labelled a point")

    monkeypatch.setattr(spectra, "_set_label", refuse)
    p = random_poset(random.Random(8), 10, 0.3)
    fr = free_boolean(classify(p), "poset-monotone", 10)
    assert len(fr.points) == len(brute_upper_sets(p.up))
    assert fr.size == 1 << len(fr.points)
    with pytest.raises(AssertionError, match="labelled a point"):
        fr.spectrum.labels


def test_priestley_dual_and_free_boolean_build_no_basic_sets(monkeypatch):
    """On the filter spectrum of a poset, whose basic sets are not the rows
    of its order; a dlat spectrum reads its basic sets for its order."""
    def refuse(self):
        raise AssertionError("built the basic sets")

    monkeypatch.setattr(Spectrum, "basics", property(refuse))
    p = random_poset(random.Random(8), 8, 0.3)
    res = poset_spectrum(p)
    fr = free_boolean(classify(p), "poset-flat")
    assert res.n_points == len(fr.points) == 8
    assert len(res.space.space.opens) == fr.size == 1 << 8
    with pytest.raises(AssertionError, match="built the basic sets"):
        fr.unit_masks


def test_dlat_views_of_a_classified_lattice_read_its_kept_rows(monkeypatch):
    """Once classify has decided a lattice distributive, its prime filters
    and their labels, basic sets and order come from the Birkhoff data kept
    on its poset: the Priestley dual, the round trip and the free Boolean
    algebra find no join-irreducibles, transpose nothing and compare no
    points for inclusion. They give what a fresh copy of the lattice gives."""
    def refuse(*args):
        raise AssertionError("recomputed the Birkhoff data")

    def summary(d):
        res = priestley_of_dlat(d)
        sp = res.spectrum
        ok, rebuilt, iso = roundtrip_check(d)
        fr = free_boolean(d, "dlat")
        return (sp.points, sp.labels, sp.basics, sp.order, res.space.preorder, ok,
                rebuilt.n, iso, fr.points, fr.spectrum.labels, fr.unit_masks, fr.size)

    rng = random.Random(17)
    for k in (1, 2, 4, 6, 8):
        q = shuffled(lower_set_lattice(random_poset(rng, k, 0.3)).base, rng)
        expected = summary(classify(Poset(q.labels, q.up)))
        d = classify(Poset(q.labels, q.up))
        with monkeypatch.context() as m:
            for module in (structures, setlattices):
                m.setattr(module, "join_irreducible_mask", refuse)
            for module, name in ((spectra, "transpose"), (setlattices, "transpose"),
                                 (spectra, "inclusion_rows")):
                m.setattr(module, name, refuse)
            assert summary(d) == expected
            assert list(prime_filters(d).masks) == list(expected[0].masks)
            res, fr = priestley_of_dlat(d), free_boolean(d, "dlat")
            assert res.spectrum is fr.spectrum is d.base.birkhoff


def _spectra_of_the_corpora():
    """(structure, duality, result) for every poset of at most 5 points and
    every msl, dd-lattice and distributive lattice among them, plus the
    down-set lattices of the posets of at most 4 points."""
    out = []
    for p in all_posets_up_to(5):
        c = classify(p)
        out.append((c, "poset", poset_spectrum(p)))
        rank = KIND_RANK[c.kind]
        if rank >= KIND_RANK["meet-semilattice"]:
            out.append((c, "msl", msl_spectrum(c)))
        if rank >= KIND_RANK["dd-lattice"]:
            out.append((c, "ddlat", ddlat_spectrum(c)))
        if rank >= KIND_RANK["distributive-lattice"]:
            out.append((c, "dlat", priestley_of_dlat(c)))
    out += [(d, "dlat", priestley_of_dlat(d))
            for d in map(lower_set_lattice, all_posets_up_to(4))]
    return out


def test_spectrum_topologies_are_their_closed_forms():
    """The patch space of every spectrum is the one the general generator
    builds from the basic sets, and so is every Stone (or witness) space:
    the coherent reduct of the patch space."""
    kinds = set()
    for c, duality, res in _spectra_of_the_corpora():
        sp = res.spectrum
        basics = SetFamily(res.n_points, sp.basics)
        assert res.space.space == patch_space(sp.labels, basics)
        stone = generate_topology(sp.labels, basics)
        assert stone.minimal == res.space.preorder.up
        assert coherent_of_priestley(res.space) == stone
        if duality == "dlat":
            assert stone_spectrum(c) == stone
        kinds.add(duality)
    assert kinds == {"poset", "msl", "ddlat", "dlat"}


def test_built_preorders_pass_the_checked_constructor():
    """Spectrum spaces and orders, Alexandrov spaces, coherent reducts,
    specialization preorders and coreflections are built without the
    constructor's checks, so their rows must already pass them unchanged."""
    built = []
    for c, duality, res in _spectra_of_the_corpora():
        space = res.space.space
        built += [space, res.space.preorder, specialization_preorder(space),
                  coherent_of_priestley(res.space), preorder_coreflection(res.space),
                  alexandrov_space(Preorder.from_poset(c.base), c.n)]
        if duality == "dlat":
            stone = stone_spectrum(c)
            ps = priestley_of_coherent(stone)
            built += [stone, ps.space, ps.preorder]
    for pre in built:
        checked = Preorder(pre.labels, pre.up)
        assert (checked.labels, checked.up) == (pre.labels, pre.up)
    assert len(built) == 918


def test_spectrum_topologies_check_the_bound_first():
    # 2^4 has four prime filters, one more than the bound allows
    d = powerset_structure(4)
    message = r"^topology generation needs carrier <= 3, got 4$"
    for build in (priestley_of_dlat, stone_spectrum, roundtrip_check):
        with pytest.raises(CarrierTooLarge, match=message):
            build(d, 3)
    assert priestley_of_dlat(d, 4).n_points == 4


# ------------------------------------------------------------ back and forth

def test_clopen_uppers_of_discrete_order_space():
    p = validate_poset(["0", "a", "b", "c", "1"],
                       [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")])
    d = dlat_of_priestley(discrete_ordered(p))
    assert d.n == 8 and d.kind == "distributive-lattice"


def test_dlat_of_priestley_rejects_non_priestley():
    sierp = FiniteSpace(["0", "1"], [0b00, 0b10, 0b11])
    order = Preorder(["0", "1"], (0b11, 0b10))
    with pytest.raises(NotPriestley):
        dlat_of_priestley(PreorderedSpace(sierp, order))


@given(posets_small)
@settings(max_examples=25)
def test_roundtrip_recovers_the_lattice(p):
    d = lower_set_lattice(p)
    ok, result, iso = roundtrip_check(d)
    assert ok and iso is not None
    assert result.n == d.n
    # the witness really is an order isomorphism
    for i in range(d.n):
        for j in range(d.n):
            assert d.leq(i, j) == result.leq(iso[i], iso[j])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40)
def test_roundtrip_iso_is_an_order_isomorphism_on_shuffled_lattices(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 5), rng.random())
    d = classify(shuffled(lower_set_lattice(p).base, rng))
    ok, result, iso = roundtrip_check(d)
    assert ok and sorted(iso) == list(range(d.n))
    for i in range(d.n):
        for j in range(d.n):
            assert d.leq(i, j) == result.leq(iso[i], iso[j])


def test_roundtrip_reads_the_kept_fold_and_still_rejects_a_tampered_embedding(monkeypatch):
    """classify's fold of the Birkhoff rows is read, not made again; basic
    sets that differ from those rows are folded and a swap is rejected, also
    when the spectrum is a Birkhoff spectrum of the lattice's own poset."""
    lattices = [chain(3), chain(5), classify(lower_set_lattice(all_posets(3)[1]).base)]
    for d in lattices:
        assert d.base.birkhoff.is_distributive()

    def refuse(*args):
        raise AssertionError("folded the basic sets again")

    monkeypatch.setattr(setlattices, "_and_fold", refuse)
    assert all(roundtrip_check(d)[0] for d in lattices)
    monkeypatch.undo()
    real = dualities._patch_spectrum

    class Swapped(Birkhoff):
        # still a bijection onto the clopen uppers, but bottom and top trade places
        __slots__ = ()

        @property
        def basics(self):
            emb = list(super().basics)
            emb[0], emb[-1] = emb[-1], emb[0]
            return tuple(emb)

    def swapped(s, duality, bound):
        return DualityResult(Swapped(s.base), real(s, duality, bound).space)

    monkeypatch.setattr(dualities, "_patch_spectrum", swapped)
    for d in lattices:
        ok, result, iso = roundtrip_check(d)
        assert not ok and iso is None and result.n == d.n


def test_roundtrip_of_claimed_distributive_lattices_is_pinned():
    # every bounded poset of 1..7 points, forced to claim it is a
    # distributive lattice: the round trip holds exactly for those classify
    # calls distributive, and the SHA-256 of (ok, rebuilt size, element map),
    # fed in order, must not depend on how the verdict is reached
    digest = hashlib.sha256()
    claimed = []
    for n in range(1, 8):
        for p in all_posets(n):
            s = classify(p)
            if s.top is not None and s.bottom is not None:
                claimed.append((s, s.with_kind("distributive-lattice")))
    assert len(claimed) == 89
    for s, d in claimed:
        ok, rebuilt, iso = roundtrip_check(d)
        assert ok == (KIND_RANK[s.kind] >= KIND_RANK["distributive-lattice"])
        digest.update(repr((ok, rebuilt.n, iso)).encode())
    assert digest.hexdigest() == (
        "e7428fb9d5fdbff109bb896b3125983a07c64ad04794990fa73d1535a5a039b2")
    for name, size in (("M3", 8), ("N5", 6)):
        d = classify(builtin_structure(name).base).with_kind("distributive-lattice")
        ok, rebuilt, iso = roundtrip_check(d)
        assert (ok, rebuilt.n, iso) == (False, size, None)


def test_roundtrip_reads_no_rebuilt_rows_or_labels(monkeypatch):
    """The round trip decides the isomorphism from the clopen uppers' masks
    and the prime filters alone: the rebuilt lattice's rows and labels are
    not built, and read later they match the element map."""
    rng = random.Random(8)
    lattices = [powerset_structure(8)]
    lattices += [classify(shuffled(lower_set_lattice(
        random_poset(rng, rng.randint(1, 8), rng.random() * 0.5)).base, rng))
        for _ in range(12)]
    for d in lattices:  # the inputs' own rows and labels may be lazy too
        d.base.up, d.labels

    def refuse(*args):
        raise AssertionError("built the rebuilt lattice's rows or labels")

    monkeypatch.setattr(setlattices, "_family_rows", refuse)
    monkeypatch.setattr(setlattices, "_set_label", refuse)
    rebuilt = []
    for d in lattices:
        ok, result, iso = roundtrip_check(d)
        assert ok and result.n == d.n and sorted(iso) == list(range(d.n))
        assert result.kind == d.kind
        rebuilt.append((d, result, iso))
    monkeypatch.undo()
    for d, result, iso in rebuilt:
        for i in range(d.n):
            assert result.base.up[iso[i]] == sum(1 << iso[j] for j in bits(d.base.up[i]))
        assert len(set(result.labels)) == d.n


def test_coherent_reduct_recovers_stone_topology():
    d = chain(3)
    res = priestley_of_dlat(d)
    reduct = coherent_of_priestley(res.space)
    assert sorted(reduct.opens) == sorted(stone_spectrum(d).opens)


@given(posets_small)
@settings(max_examples=25)
def test_patch_of_coherent_reduct_is_identity(p):
    res = poset_spectrum(p)
    back = priestley_of_coherent(coherent_of_priestley(res.space))
    assert sorted(back.space.opens) == sorted(res.space.space.opens)
    assert back.preorder.up == res.space.preorder.up


# ------------------------------------------------------------- dual maps

def test_dual_morphism_of_chain_inclusion():
    f = StructureMorphism(chain(2), chain(3), (0, 2), "lattice-hom")
    dm = dual_morphism(f, "dlat")
    assert dm.continuous and dm.monotone
    assert dm.source.n == 2 and dm.target.n == 1


def test_dual_morphism_is_contravariant():
    f = StructureMorphism(chain(2), chain(3), (0, 2), "lattice-hom")
    g = StructureMorphism(chain(3), chain(4), (0, 2, 3), "lattice-hom")
    gf = StructureMorphism(chain(2), chain(4), (0, 3), "lattice-hom")
    df, dg, dgf = (dual_morphism(h, "dlat") for h in (f, g, gf))
    assert all(dgf.map[k] == df.map[dg.map[k]] for k in range(dgf.source.n))


def test_dual_morphism_checks_hom_kind():
    d4 = classify(validate_poset(["0", "a", "b", "1"],
                                 [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]))
    # joins are preserved but a ^ b = 0 is sent to 1: not a lattice hom
    f = StructureMorphism(d4, chain(2), (0, 1, 1, 1), "monotone")
    with pytest.raises(KindMismatch):
        dual_morphism(f, "dlat")


@pytest.mark.parametrize("duality", ["msl", "dlat", "ddlat"])
def test_dual_morphism_rejects_a_source_without_top(duality):
    a2 = classify(validate_poset(["p", "q"], []))
    f = StructureMorphism(a2, chain(2), (1, 1), "monotone")
    with pytest.raises(KindMismatch, match="needs"):
        dual_morphism(f, duality)


def test_dual_morphism_requires_flat_maps_for_posets():
    # x -> p is monotone but not flat: up(q) would pull back to the empty set
    point = classify(validate_poset(["x"], []))
    a2 = classify(validate_poset(["p", "q"], []))
    f = StructureMorphism(point, a2, (0,), "monotone")
    with pytest.raises(KindMismatch):
        dual_morphism(f, "poset")


def test_dual_morphism_of_flat_map():
    f = StructureMorphism(chain(3), chain(2), (0, 0, 1), "flat")
    dm = dual_morphism(f, "poset")
    assert dm.continuous and dm.monotone
    assert dm.source.n == 2 and dm.target.n == 3


# -------------------------------------------------------- extended image

def test_spectra_lie_in_their_extended_images():
    a2 = validate_poset(["p", "q"], [])
    ok, reason = extended_image_check(poset_spectrum(a2).space, "coherent-poset")
    assert ok and reason is None
    ok, reason = extended_image_check(msl_spectrum(chain(3).with_kind(
        "meet-semilattice")).space, "msl")
    assert ok and reason is None


def test_discrete_antichain_is_coherent_but_not_msl_image():
    p = validate_poset(["x0", "x1"], [])
    ps = discrete_ordered(p)
    ok, _ = extended_image_check(ps, "coherent-poset")
    assert ok
    ok, reason = extended_image_check(ps, "msl")
    assert not ok and reason["kind"] == "top-not-weakly-indecomposable"


def test_extended_image_check_requires_priestley():
    space = FiniteSpace(["x0", "x1"], [0b00, 0b11])
    ps = PreorderedSpace(space, Preorder(["x0", "x1"], (0b01, 0b10)))
    with pytest.raises(NotPriestley):
        extended_image_check(ps, "coherent-poset")


# ------------------------------------------------- ordered Boolean envelope

def test_ordered_boolean_of_chain_as_lattice():
    fr = free_boolean(chain(3), "dlat")
    assert fr.structure.n == 4
    assert fr.structure.kind == "boolean-algebra"
    assert fr.spectrum.order == (0b11, 0b10)  # two primes forming a chain
    assert upper_elements(fr).members() == (0, 2, 3)


def test_ordered_boolean_of_chain_as_msl():
    fr = free_boolean(chain(3).with_kind("meet-semilattice"), "msl")
    assert fr.structure.n == 8
    assert fr.spectrum.order == (0b111, 0b110, 0b100)  # three filters, a chain
    assert upper_elements(fr).members() == (0, 4, 6, 7)


def test_upper_elements_against_definition():
    """Every free kind on every corpus structure of that kind with at most 4
    points; a free algebra above the size cap is never materialized."""
    kinds = set()
    for c in map(classify, all_posets_up_to(4)):
        for kind in FREE_KINDS:
            if c.rank() < KIND_RANK[LEAST_KIND[kind]]:
                continue
            kinds.add(kind)
            fr = free_boolean(c, kind)
            assert fr.spectrum.order == tuple(inclusion_rows(fr.points.masks))
            if fr.size > MATERIALIZE_CAP:
                with pytest.raises(CarrierTooLarge):
                    upper_elements(fr)
                continue
            got = set(upper_elements(fr).members())
            for x in range(fr.structure.n):
                expected = all(x >> k2 & 1
                               for k in bits(x) for k2 in bits(fr.spectrum.order[k]))
                assert (x in got) == expected
    assert kinds == set(FREE_KINDS)


def test_spectrum_for_dispatch():
    c = chain(3)
    assert spectrum_for(c, "dlat").n_points == 2
    assert spectrum_for(c.with_kind("meet-semilattice"), "msl").n_points == 3
    assert spectrum_for(c.with_kind("dd-lattice"), "ddlat").n_points == 2
    assert spectrum_for(c, "poset").n_points == 3


def test_poset_spectrum_auxiliary_open_space():
    a2 = validate_poset(["p", "q"], [])
    res = poset_spectrum(a2)
    # lower-set witnesses: {}, {p}, {q}, {p,q} give opens {}, {F_p}, {F_q}, all
    assert sorted(coherent_of_priestley(res.space).opens) == [0b00, 0b01, 0b10, 0b11]


def test_poset_spectrum_open_space_is_the_lower_set_witnesses():
    for p in all_posets_up_to(5):
        res = poset_spectrum(p)
        witnesses = set()
        for u in brute_upper_sets(p.dn):  # the lower sets of p
            f_u = 0
            for i in bits(u):
                f_u |= res.spectrum.basics[i]
            witnesses.add(f_u)
        assert coherent_of_priestley(res.space).opens.masks == tuple(sorted(witnesses))


def test_lattice_path_builds_no_tables(monkeypatch):
    """classify, the prime filters, the Priestley dual, the round trip, the
    disjunctively compact elements and the free Boolean algebra decide
    everything from order rows, so they run on 2^10 and on a 10-point
    down-set lattice with no meet or join read and no lookup built."""
    lattices = [(powerset_structure(10).base, "boolean-algebra"),
                (lower_set_lattice(random_poset(random.Random(3), 10, 0.2)).base,
                 "distributive-lattice")]

    # in 2^10 the atoms below an element meet pairwise in the bottom, so
    # every element is compact
    compact = [(1 << (1 << 10)) - 1,
               brute_disjunctively_compact(classify(lattices[1][0]))]

    def refuse(*args):
        raise AssertionError("read a meet or join")

    for name in ("meet", "join", "_lookups"):
        monkeypatch.setattr(structures.Structure, name, refuse)
    for (base, kind), wanted in zip(lattices, compact):
        s = classify(base)
        assert s.kind == kind
        assert disjunctively_compact_elements(s).mask == wanted
        assert len(prime_filters(s)) == 10
        assert priestley_of_dlat(s).n_points == 10
        ok, rebuilt, iso = roundtrip_check(s)
        assert ok and rebuilt.n == s.n and sorted(iso) == list(range(s.n))
        assert free_boolean(s, "dlat").size == 1 << 10
