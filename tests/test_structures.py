import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_disjunctive_filters,
    brute_filters,
    brute_join,
    brute_prime_filters,
    lower_set_lattice,
)
from ordua.corpus import all_posets, all_posets_up_to, random_poset
from ordua.errors import (
    AntisymmetryViolation,
    CarrierTooLarge,
    DuplicateLabel,
    InputFormatError,
    KindMismatch,
    UnknownLabel,
)
from ordua.structures import (
    Poset,
    StructureMorphism,
    Subset,
    bits,
    canonical_form,
    chain_structure,
    classify,
    compose,
    disjunctive_filters,
    disjunctively_compact_elements,
    enumerate_homomorphisms,
    filters,
    indecomposable_elements,
    is_coherent_poset,
    is_flat_map,
    is_homomorphism,
    order_isomorphism,
    powerset_structure,
    prime_filters,
    structure_from_closed_masks,
    validate_poset,
)

BUILTIN_ORDERS = {
    "C2": (["0", "1"], [("0", "1")]),
    "C3": (["0", "a", "1"], [("0", "a"), ("a", "1")]),
    "C4": (["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")]),
    "A2": (["p", "q"], []),
    "D4": (["0", "a", "b", "1"],
           [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    "M3": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]),
    "N5": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")]),
}


def mk(name):
    labels, pairs = BUILTIN_ORDERS[name]
    return classify(validate_poset(labels, pairs))


posets_small = st.sampled_from(all_posets_up_to(4))
posets_5 = st.sampled_from(all_posets(5))
seeds = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------- validation

def test_validate_poset_accepts_partial_pairs():
    p = validate_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert p.leq(p.index("x"), p.index("z"))  # transitive closure taken


def test_validate_poset_rejects_cycle():
    with pytest.raises(AntisymmetryViolation) as err:
        validate_poset(["x", "y"], [("x", "y"), ("y", "x")])
    assert set(err.value.cycle) == {"x", "y"}


def test_validate_poset_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        validate_poset(["x", "x"], [])


def test_validate_poset_rejects_unknown_label():
    with pytest.raises(UnknownLabel):
        validate_poset(["x"], [("x", "w")])


def test_poset_requires_nonempty_carrier():
    with pytest.raises(Exception):
        Poset([], [])


# ------------------------------------------------------------ classification

def test_classify_known_kinds():
    assert mk("C2").kind == "boolean-algebra"
    assert mk("C3").kind == "distributive-lattice"
    assert mk("C4").kind == "distributive-lattice"
    assert mk("A2").kind == "poset"
    assert mk("D4").kind == "boolean-algebra"
    # M3 and N5 are lattices but not (disjunctively) distributive
    assert mk("M3").kind == "meet-semilattice"
    assert mk("N5").kind == "meet-semilattice"
    assert mk("M3").is_lattice() and mk("N5").is_lattice()


def test_classify_powerset_is_boolean():
    for k in range(4):
        assert powerset_structure(k).kind == "boolean-algebra"


def test_chain_structure_kinds():
    assert chain_structure(1).kind == "boolean-algebra"
    assert chain_structure(2).kind == "boolean-algebra"
    assert chain_structure(5).kind == "distributive-lattice"


@given(seeds)
@settings(max_examples=40)
def test_lower_set_lattice_is_distributive(seed):
    import random
    p = random_poset(random.Random(seed), 5)
    lat = lower_set_lattice(p)
    assert lat.rank() >= 3  # distributive-lattice or boolean-algebra


@given(posets_small)
def test_distributivity_matches_cubic_law(p):
    s = classify(p)
    if not s.is_lattice():
        return
    law = all(
        s.meet[a][s.join[b][c]] == s.join[s.meet[a][b]][s.meet[a][c]]
        for a in range(s.n) for b in range(s.n) for c in range(s.n))
    assert (s.rank() >= 3) == law


def test_kind_gating():
    with pytest.raises(KindMismatch):
        mk("A2").require("meet-semilattice", "meets")
    with pytest.raises(KindMismatch):
        prime_filters(mk("M3"))  # primes need a distributive lattice


# -------------------------------------------------------------------- filters

def test_filter_counts_on_known_structures():
    assert len(filters(mk("C3"))) == 3
    assert len(filters(mk("D4"))) == 4
    assert len(filters(mk("M3"))) == 5
    assert len(filters(mk("N5"))) == 5
    assert len(filters(mk("A2"))) == 2


@given(posets_small)
def test_filters_match_definition(p):
    s = classify(p)
    assert sorted(filters(s).masks) == sorted(brute_filters(s))


@given(posets_5)
@settings(max_examples=60)
def test_filters_match_definition_size5(p):
    s = classify(p)
    assert sorted(filters(s).masks) == sorted(brute_filters(s))


@given(posets_small)
def test_msl_filters_are_principal(p):
    # in a finite meet-semilattice every filter is the up-set of its meet
    s = classify(p)
    if s.rank() < 1:
        return
    for m in filters(s).masks:
        least = [x for x in bits(m) if all(s.leq(x, y) for y in bits(m))]
        assert len(least) == 1
        assert m == s.base.up[least[0]]


def test_prime_filter_counts():
    assert len(prime_filters(mk("C3"))) == 2
    assert len(prime_filters(mk("C4"))) == 3
    assert len(prime_filters(mk("D4"))) == 2
    assert len(prime_filters(chain_structure(1))) == 0


@given(seeds)
@settings(max_examples=40)
def test_prime_filters_match_definition(seed):
    import random
    lat = lower_set_lattice(random_poset(random.Random(seed), 4))
    assert sorted(prime_filters(lat).masks) == sorted(brute_prime_filters(lat))


def test_disjunctive_filter_counts():
    assert sorted(disjunctive_filters(mk("D4")).masks) == sorted(
        [mk("D4").base.up[mk("D4").labels.index("a")],
         mk("D4").base.up[mk("D4").labels.index("b")]])
    assert len(disjunctive_filters(mk("C3"))) == 2


@given(posets_5)
@settings(max_examples=60)
def test_disjunctive_filters_match_definition(p):
    s = classify(p)
    if s.rank() < 2:
        return
    assert sorted(disjunctive_filters(s).masks) == sorted(
        brute_disjunctive_filters(s))


def _seeded_lower_set_lattice(seed):
    import random
    return lower_set_lattice(random_poset(random.Random(seed), 4))


# No dd-lattice of 5 or fewer elements has a disjoint family of 3 or more, so
# these larger inputs are the ones where checking only disjoint pairs could
# differ from checking every disjoint family.
@pytest.mark.parametrize("s", [powerset_structure(3), powerset_structure(4)]
                         + [_seeded_lower_set_lattice(seed) for seed in range(8)])
def test_disjunctive_filters_match_definition_beyond_pairs(s):
    s = s.with_kind("dd-lattice")
    assert sorted(disjunctive_filters(s).masks) == sorted(
        brute_disjunctive_filters(s))


def test_filters_respect_bound():
    with pytest.raises(CarrierTooLarge):
        filters(mk("C3"), bound=2)


# ---------------------------------------------------------------- morphisms

def test_from_labels_validates():
    c2, c3 = mk("C2"), mk("C3")
    with pytest.raises(UnknownLabel):
        StructureMorphism.from_labels(c2, c3, {"0": "0", "1": "w"}, "monotone")
    with pytest.raises(InputFormatError):
        StructureMorphism.from_labels(c2, c3, {"0": "0"}, "monotone")


def test_is_homomorphism_meet_and_lattice():
    c3, d4 = mk("C3"), mk("D4")
    f = StructureMorphism.from_labels(
        c3, d4, {"0": "0", "a": "a", "1": "1"}, "meet-hom")
    assert is_homomorphism(f)
    g = StructureMorphism.from_labels(
        c3, d4, {"0": "0", "a": "a", "1": "1"}, "lattice-hom")
    assert is_homomorphism(g)
    bad = StructureMorphism.from_labels(
        c3, d4, {"0": "a", "a": "a", "1": "1"}, "lattice-hom")
    assert not is_homomorphism(bad)  # does not preserve bottom


def test_enumerate_boolean_homs_counts_atom_maps():
    # Boolean homs 2^2 -> 2^3 correspond to maps atoms(2^3) -> atoms(2^2)
    b2, b3 = powerset_structure(2), powerset_structure(3)
    homs = enumerate_homomorphisms(b2, b3, "boolean-hom")
    assert len(homs) == 2 ** 3
    assert all(is_homomorphism(h) for h in homs)


def test_enumerate_meet_homs_against_filter():
    c3 = mk("C3")
    homs = enumerate_homomorphisms(c3, c3, "meet-hom")
    brute = [m for m in itertools.product(range(3), repeat=3)
             if is_homomorphism(StructureMorphism(c3, c3, m, "meet-hom"))]
    assert sorted(h.map for h in homs) == sorted(brute)


def test_compose_checks_carriers():
    c2, c3 = mk("C2"), mk("C3")
    f = StructureMorphism.from_labels(c2, c3, {"0": "0", "1": "1"}, "monotone")
    g = StructureMorphism.from_labels(c3, c2, {"0": "0", "a": "1", "1": "1"},
                                      "monotone")
    h = compose(g, f)
    assert h.map == (0, 1)
    with pytest.raises(Exception):
        compose(f, f)


def test_flat_map_examples():
    c2, a2 = mk("C2"), mk("A2")
    ident = StructureMorphism(c2, c2, (0, 1), "flat")
    ok, witness = is_flat_map(ident)
    assert ok and witness is None
    # collapsing an antichain onto the top of a chain is monotone but the
    # two points have no common lower bound in the fibres
    f = StructureMorphism.from_labels(a2, c2, {"p": "1", "q": "1"}, "flat")
    ok_f, witness_f = is_flat_map(f)
    assert isinstance(ok_f, bool)
    if not ok_f:
        assert witness_f["condition"] in {"monotone", "covering", "directedness"}


# ----------------------------------------------------------------- coherence

@given(posets_small)
def test_every_finite_poset_is_coherent(p):
    ok, witness = is_coherent_poset(p)
    assert ok
    assert "top-cover" in witness and "fc-limits" in witness


# --------------------------------------------------------------- isomorphism

@given(posets_5, seeds)
@settings(max_examples=60)
def test_order_isomorphism_finds_relabelling(p, seed):
    import random
    rng = random.Random(seed)
    perm = list(range(p.n))
    rng.shuffle(perm)
    rows = [0] * p.n
    for i in range(p.n):
        for j in bits(p.up[i]):
            rows[perm[i]] |= 1 << perm[j]
    q = Poset([f"y{k}" for k in range(p.n)], rows)
    iso = order_isomorphism(p, q)
    assert iso is not None
    assert all(p.leq(i, j) == q.leq(iso[i], iso[j])
               for i in range(p.n) for j in range(p.n))
    assert canonical_form(p) == canonical_form(q)


def test_order_isomorphism_respects_pins():
    a2 = mk("A2").base
    assert order_isomorphism(a2, a2, pins={0: 1}) == (1, 0)
    c3 = mk("C3").base
    assert order_isomorphism(c3, c3, pins={0: 1}) is None


def test_non_isomorphic_posets_rejected():
    assert order_isomorphism(mk("C4").base, mk("D4").base) is None
    assert canonical_form(mk("C4").base) != canonical_form(mk("D4").base)


# ------------------------------------------------------ recovery ingredients

def test_indecomposables_of_a_chain():
    c4 = mk("C4")
    ind = indecomposable_elements(c4)
    # every nonbottom element of a chain is join-irreducible
    assert sorted(ind.members()) == sorted(i for i in range(4) if i != c4.bottom)


def test_disjunctively_compact_on_diamond():
    # the diamond is its own free distributive lattice over disjoint joins,
    # so all four elements are disjunctively compact (1 = a v b is a disjoint
    # join, but its class joins a and b are each avoidable by covers)
    d4 = mk("D4")
    assert set(disjunctively_compact_elements(d4).members()) == {0, 1, 2, 3}


def test_subset_helpers():
    s = Subset(4, 0b1010)
    assert s.members() == (1, 3)
    assert 1 in s and 0 not in s
    assert Subset.from_indices(4, [1, 3]).mask == 0b1010
