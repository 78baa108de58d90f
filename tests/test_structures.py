import collections
import functools
import gc
import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_canonical,
    brute_class_maps,
    brute_closed_family,
    brute_complement,
    brute_disjunctive_filters,
    brute_filters,
    brute_join,
    brute_kind,
    brute_meet,
    brute_preorders,
    brute_prime_filters,
    brute_tables,
    brute_upper_sets,
    closure_reference,
    hom_kind_supported,
    labelled_down_rows,
    listed_refined_colors,
    lower_set_lattice,
    random_set_family,
    shuffled,
    warshall_poset,
)
from ordua import corpus, structures
from ordua.corpus import (
    all_posets,
    all_posets_up_to,
    all_preorders,
    random_poset,
)
from ordua.errors import (
    AntisymmetryViolation,
    CarrierTooLarge,
    DuplicateLabel,
    InputFormatError,
    KindMismatch,
    UnknownLabel,
)
from ordua.setlattices import (
    _lattice_of_upsets,
    powerset_structure,
    structure_from_closed_masks,
)
from ordua.spectra import Spectrum, spectrum
from ordua.structures import (
    KINDS,
    MORPHISM_KINDS,
    Poset,
    SetFamily,
    Structure,
    StructureMorphism,
    Subset,
    _monotone_maps,
    _refine_colors,
    bits,
    canonical_form,
    chain_structure,
    classify,
    compose,
    count_upper_sets,
    cover_pairs,
    disjunctive_filters,
    disjunctively_compact_elements,
    enumerate_homomorphisms,
    filters,
    inclusion_rows,
    indecomposable_elements,
    is_coherent_poset,
    is_flat_map,
    is_homomorphism,
    join_irreducible_mask,
    order_isomorphism,
    prime_filters,
    transitive_closure,
    transpose,
    upper_sets,
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


def test_validate_poset_builds_its_label_index_once(monkeypatch):
    built, index = [], structures._label_index
    monkeypatch.setattr(structures, "_label_index",
                        lambda labels: built.append(labels) or index(labels))
    p = validate_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert built == [("x", "y", "z")]
    assert [p.index(x) for x in "xyz"] == [0, 1, 2]


def _random_relation(rng):
    """Random labels and pairs: mostly along a hidden linear order, with a
    few pairs against it (which may close a cycle), self-pairs and repeats."""
    n = rng.randint(1, 8)
    labels = [f"v{i}" for i in rng.sample(range(20), n)]
    forward = rng.random()
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i, n)
             if rng.random() < forward / 2]
    pairs += [(labels[j], labels[i]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.08]
    pairs += rng.sample(pairs, min(2, len(pairs)))
    rng.shuffle(pairs)
    return labels, pairs


@pytest.mark.parametrize("block", range(10))
def test_validate_poset_matches_warshall(block):
    rng = random.Random(block)
    outcomes = set()
    for _ in range(40):
        labels, pairs = _random_relation(rng)
        up, cycle = warshall_poset(labels, pairs)
        outcomes.add(cycle is None)
        if cycle is not None:
            with pytest.raises(AntisymmetryViolation) as err:
                validate_poset(labels, pairs)
            assert err.value.cycle == cycle
            continue
        p = validate_poset(labels, pairs)
        assert p.labels == tuple(labels) and list(p.up) == up
        assert list(p.dn) == [sum(1 << i for i in range(p.n) if up[i] >> j & 1)
                              for j in range(p.n)]
    assert outcomes == {True, False}


def _messy_relation(rng):
    """Labels, some of them not strings, and pairs that name a label by its
    object or by its string, along a hidden order and now and then against
    it (closing cycles), with self-pairs, repeated pairs and, rarely, a
    label outside the carrier."""
    pool = list(range(12)) + [f"v{i}" for i in range(12)] + [1.5, (1, 2), None]
    labels = rng.sample(pool, rng.randint(1, 9))
    n = len(labels)

    def name(i):
        return labels[i] if rng.random() < 0.5 else str(labels[i])

    pairs = [(name(i), name(j)) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    pairs += [(name(j), name(i)) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.02]
    pairs += [(name(i), name(i)) for i in range(n) if rng.random() < 0.2]
    pairs += [rng.choice(pairs) for _ in range(len(pairs) // 3)] if pairs else []
    if rng.random() < 0.1:
        pairs.append(rng.choice([("w", name(0)), (name(0), "w")]))
    rng.shuffle(pairs)
    return labels, pairs


@pytest.mark.parametrize("block", range(10))
def test_validate_poset_closes_like_transitive_closure(block):
    rng = random.Random(500 + block)
    outcomes = collections.Counter()
    for _ in range(60):
        labels, pairs = _messy_relation(rng)
        want = closure_reference(labels, pairs)
        outcomes[want[0]] += 1
        if want[0] == "poset":
            p = validate_poset(labels, pairs)
            assert p.labels == tuple(map(str, labels))
            assert (list(p.up), list(p.dn)) == (want[1], want[2])
            continue
        with pytest.raises(want[0]) as err:
            validate_poset(labels, pairs)
        assert type(err.value) is want[0]
        if want[0] is AntisymmetryViolation:
            assert err.value.cycle == want[1]
        else:
            assert str(err.value) == f"unknown label {want[1]!r} in order pair"
    assert outcomes["poset"] and outcomes[AntisymmetryViolation]


def _wide_down_set_lattice(rng, k):
    """The down-set lattice of a random k-point poset with 30 to 140 elements."""
    while True:
        p = random_poset(rng, k, rng.uniform(0.3, 0.6))
        if 30 <= count_upper_sets(p.dn) <= 140:
            return lower_set_lattice(p).base


@pytest.mark.parametrize("block", range(3))
def test_validate_poset_closes_wide_carriers_like_transitive_closure(block):
    """The cover pairs of 2^5 to 2^7 and of down-set lattices of 8 to 10
    points, so rows past the 8-bit bits table, relabelled so that index
    order is not topological, shuffled, some repeated, with self-pairs; then
    one more pair y <= x for some x < y, which closes a cycle through every
    point between them."""
    rng = random.Random(900 + block)
    for p in (powerset_structure(5 + block).base, _wide_down_set_lattice(rng, 8 + block)):
        q = shuffled(p, rng)
        assert 30 <= q.n <= 140 and any(j < i for i in range(q.n) for j in bits(q.up[i]))
        pairs = [(q.labels[i], q.labels[j]) for i, j in cover_pairs(q.up)]
        pairs += rng.sample(pairs, len(pairs) // 4) + [(x, x) for x in rng.sample(q.labels, 3)]
        rng.shuffle(pairs)
        got = validate_poset(q.labels, pairs)
        assert closure_reference(q.labels, pairs) == ("poset", list(got.up), list(got.dn))
        assert got.up == q.up
        x, y = rng.choice([(i, j) for i in range(q.n) for j in bits(q.up[i]) if i != j])
        pairs.insert(rng.randrange(len(pairs) + 1), (q.labels[y], q.labels[x]))
        want = closure_reference(q.labels, pairs)
        assert want[0] is AntisymmetryViolation and len(want[1]) > 1
        with pytest.raises(AntisymmetryViolation) as err:
            validate_poset(q.labels, pairs)
        assert err.value.cycle == want[1]


def test_validate_poset_reads_int_labels_and_repeated_pairs_as_strings():
    # a chain 0 < 1 < 2 < 3 named by ints and strings, every pair repeated,
    # self-pairs and a redundant pair, against its covers named by strings
    pairs = [(0, 1), ("1", 2), (2, "3"), (0, 3), (1, 1), ("0", 0)]
    p = validate_poset(range(4), pairs * 3 + pairs[::-1])
    want = validate_poset(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")])
    assert p == want and (p.labels, p.up, p.dn) == (want.labels, want.up, want.dn)
    assert p.up == (0b1111, 0b1110, 0b1100, 0b1000)
    assert closure_reference(range(4), pairs * 3) == ("poset", list(p.up), list(p.dn))
    # an unhashable label is looked up by its string, and reported by it
    with pytest.raises(UnknownLabel) as err:
        validate_poset(["x", "y"], [("x", "y"), (["x"], "y")])
    assert str(err.value) == "unknown label \"['x']\" in order pair"
    assert validate_poset(["[1]", "y"], [([1], "y")]).up == (0b11, 0b10)


def test_poset_requires_nonempty_carrier():
    with pytest.raises(Exception):
        Poset([], [])


@pytest.mark.parametrize("up,error,message", [
    ((0b11,), InputFormatError, "order rows do not match carrier size"),
    ((0b01, 0b110), InputFormatError, "order row 1 out of range"),
    ((0b01, -1), InputFormatError, "order row 1 out of range"),
    ((0b01, 0b00), InputFormatError, "order not reflexive at b"),
    ((0b011, 0b110, 0b100), InputFormatError, "order not transitive at a <= b"),
    ((0b11, 0b11), AntisymmetryViolation, "antisymmetry violation on cycle ['a', 'b']"),
], ids=["rows", "range", "negative", "reflexive", "transitive", "antisymmetric"])
def test_poset_constructor_rejects_each_bad_order(up, error, message):
    labels = ["a", "b", "c"][:max(len(up), 2)]
    with pytest.raises(error) as err:
        Poset(labels, up)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("build,error,message", [
    (lambda: Subset(2, 4), InputFormatError, "mask 4 out of range for carrier of size 2"),
    (lambda: Subset(2, -1), InputFormatError, "mask -1 out of range for carrier of size 2"),
    (lambda: Subset.from_indices(2, [0, 2]), InputFormatError,
     "index 2 out of range for carrier of size 2"),
    (lambda: SetFamily(2, [1, 5, 8]), InputFormatError,
     "mask 5 out of range for carrier of size 2"),
    (lambda: Structure(mk("C2").base, "ring", 1, 0, None), InputFormatError,
     "unknown kind 'ring'"),
    (lambda: StructureMorphism(mk("C2"), mk("C3"), (0, 3), "monotone"), InputFormatError,
     "morphism map does not fit the carriers"),
    (lambda: StructureMorphism(mk("C2"), mk("C3"), (0,), "monotone"), InputFormatError,
     "morphism map does not fit the carriers"),
    (lambda: StructureMorphism.from_labels(
        mk("C2"), mk("C3"), {"0": "0", "1": "1", "z": "a", "y": "a"}, "monotone"),
     UnknownLabel, "map mentions labels outside the source: ['y', 'z']"),
], ids=["subset-mask", "subset-negative", "subset-index", "family-mask", "structure-kind",
        "morphism-value", "morphism-length", "morphism-labels"])
def test_carrier_objects_reject_what_does_not_fit(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


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


def test_powerset_structure_matches_its_closed_family():
    for k in range(7):
        got = powerset_structure(k)
        want = structure_from_closed_masks([f"p{i}" for i in range(k)], range(1 << k))
        assert (got.labels, got.base.up, got.base.dn, got.kind, got.top, got.bottom,
                got.complement) == (want.labels, want.base.up, want.base.dn, want.kind,
                                    want.top, want.bottom, want.complement)


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
        s.meet(a, s.join(b, c)) == s.join(s.meet(a, b), s.meet(a, c))
        for a in range(s.n) for b in range(s.n) for c in range(s.n))
    assert (s.rank() >= 3) == law


def _shuffled_tables_case(seed):
    rng = random.Random(seed)
    if seed % 3 == 0:
        p = lower_set_lattice(random_poset(rng, rng.randint(1, 4))).base
    else:
        p = random_poset(rng, rng.randint(1, 7), rng.random())
    return shuffled(p, rng)


@given(seeds)
@example(0)  # a lower-set lattice
@example(1)  # a poset with undefined meets and joins
@settings(max_examples=80)
def test_classify_tables_match_definition(seed):
    p = _shuffled_tables_case(seed)
    s = classify(p)
    for a in range(s.n):
        for b in range(s.n):
            assert s.meet(a, b) == brute_meet(s, a, b)
            assert s.join(a, b) == brute_join(s, a, b)


def test_table_cases_include_undefined_cells():
    a2 = mk("A2")
    assert [[a2.meet(a, b) for b in range(2)] for a in range(2)] == [[0, None], [None, 1]]
    assert [[a2.join(a, b) for b in range(2)] for a in range(2)] == [[0, None], [None, 1]]
    assert not a2.is_lattice()
    assert any(s.meet(a, b) is None for seed in range(1, 20, 3)
               for s in [classify(_shuffled_tables_case(seed))]
               for a in range(s.n) for b in range(s.n))


@pytest.mark.parametrize("seed", range(30))
def test_closed_family_tables_match_definition(seed):
    rng = random.Random(seed)
    s = lower_set_lattice(random_poset(rng, rng.randint(1, 5), rng.random()))
    for a in range(s.n):
        for b in range(s.n):
            assert s.meet(a, b) == brute_meet(s, a, b)
            assert s.join(a, b) == brute_join(s, a, b)


@pytest.mark.parametrize("labels, masks, message", [
    (["a", "b"], [0, 3, 7], "empty and full"),
    (["a", "b"], [-1, 0, 3], "empty and full"),
    (["a", "b"], [], "empty and full"),
    (["a", "b"], [1, 3], "empty and full"),
    (["a", "b"], [0, 1], "empty and full"),
    (["a", "b", "c"], [0, 1, 2, 7], "not closed"),  # {a} | {b} is missing
    (["a", "b", "c"], [0, 3, 6, 7], "not closed"),  # {a,b} & {b,c} is missing
], ids=["beyond-carrier", "negative", "no-sets", "no-empty-set", "no-full-set",
        "not-union-closed", "not-intersection-closed"])
def test_structure_from_closed_masks_rejects_bad_families(labels, masks, message):
    with pytest.raises(InputFormatError, match=message):
        structure_from_closed_masks(labels, masks)


@pytest.mark.parametrize("block", range(10))
def test_structure_from_closed_masks_matches_pairwise_reference(block):
    rng = random.Random(100 + block)
    outcomes = set()
    for _ in range(30):
        labels, masks = random_set_family(rng)
        expected = brute_closed_family(len(labels), masks)
        outcomes.add(isinstance(expected, str))
        if isinstance(expected, str):
            with pytest.raises(InputFormatError) as err:
                structure_from_closed_masks(labels, masks)
            assert str(err.value) == expected
            continue
        s = structure_from_closed_masks(labels, masks)
        assert list(s.base.up) == expected
        assert list(s.base.dn) == [
            sum(1 << i for i in range(s.n) if expected[i] >> j & 1) for j in range(s.n)]
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", range(1, 7))
def test_classify_matches_brute_force_up_to_6_points(n):
    """Every poset on n points and its lower-set lattice, as classify sees it
    and as structure_from_closed_masks builds it."""
    for p in all_posets(n):
        lattice = lower_set_lattice(p)
        for group in ([classify(p)], [lattice, classify(lattice.base)]):
            s = group[0]
            meet, join = brute_tables(s)
            rng = range(s.n)
            kind = brute_kind(s, meet, join)
            top = next((x for x in rng if all(s.leq(y, x) for y in rng)), None)
            bottom = next((x for x in rng if all(s.leq(x, y) for y in rng)), None)
            complements = (tuple(brute_complement(s, a) for a in rng)
                           if kind == "boolean-algebra" else None)
            for t in group:
                assert (t.kind, t.top, t.bottom, t.complement) == (
                    kind, top, bottom, complements)
                assert [[t.meet(a, b) for b in rng] for a in rng] == [
                    [meet[a, b] for b in rng] for a in rng]
                assert [[t.join(a, b) for b in rng] for a in rng] == [
                    [join[a, b] for b in rng] for a in rng]


def _assert_classify_matches_brute(p):
    s = classify(p)
    meet, join = brute_tables(s)
    rng = range(s.n)
    kind = brute_kind(s, meet, join)
    top = next((x for x in rng if all(s.leq(y, x) for y in rng)), None)
    bottom = next((x for x in rng if all(s.leq(x, y) for y in rng)), None)
    complements = (tuple(brute_complement(s, a) for a in rng)
                   if kind == "boolean-algebra" else None)
    assert (s.kind, s.top, s.bottom, s.complement) == (kind, top, bottom, complements), p
    return kind


def _sub_order(p, keep):
    """The order p induces on the indices in keep."""
    return Poset([p.labels[i] for i in keep],
                 [sum(1 << k for k, j in enumerate(keep) if p.leq(i, j)) for i in keep])


@pytest.mark.parametrize("seed", range(12))
def test_classify_matches_brute_force_on_near_misses(seed):
    """A seeded distributive lattice of 7-10 elements (the lower sets of a
    random poset), with each one element taken out and with each one order
    pair added between incomparable elements: lattices that are not
    distributive, and posets that are no lattice at all."""
    rng = random.Random(seed)
    lat = lower_set_lattice(random_poset(rng, rng.randint(3, 5), rng.random()))
    while not 7 <= lat.n <= 10:
        lat = lower_set_lattice(random_poset(rng, rng.randint(3, 5), rng.random()))
    p = shuffled(lat.base, rng)
    kinds = collections.Counter([_assert_classify_matches_brute(p)])
    for x in range(p.n):
        kinds[_assert_classify_matches_brute(_sub_order(p, [i for i in range(p.n) if i != x]))] += 1
    for a, b in itertools.permutations(range(p.n), 2):
        if not (p.leq(a, b) or p.leq(b, a)):
            rows = list(p.up)
            rows[a] |= 1 << b
            kinds[_assert_classify_matches_brute(Poset(p.labels, transitive_closure(rows)))] += 1
    assert kinds["distributive-lattice"] + kinds["boolean-algebra"] >= 2
    assert len(kinds) >= 2


def _glued(*names):
    """The built-in lattices stacked bottom to top, the top of each one
    identified with the bottom of the next."""
    labels, pairs, below = [], [], None
    for k, name in enumerate(names):
        own, own_pairs = BUILTIN_ORDERS[name]
        rename = {x: f"{k}{x}" for x in own}
        rename[own[0]] = below or rename[own[0]]  # own[0] is the bottom
        labels += [y for y in rename.values() if y not in labels]
        pairs += [(rename[a], rename[b]) for a, b in own_pairs]
        below = rename[own[-1]]  # own[-1] is the top
    return validate_poset(labels, pairs)


def _times_chain(name, length):
    own, own_pairs = BUILTIN_ORDERS[name]
    labels = [f"{x}{i}" for x in own for i in range(length)]
    pairs = [(f"{a}{i}", f"{b}{i}") for a, b in own_pairs for i in range(length)]
    pairs += [(f"{x}{i}", f"{x}{i + 1}") for x in own for i in range(length - 1)]
    return validate_poset(labels, pairs)


@pytest.mark.parametrize("p, kind", [
    # above an atom, elements are never disjoint: M3 and N5 are no obstacle
    (_glued("C2", "M3", "C3"), "dd-lattice"),
    (_glued("D4", "N5"), "dd-lattice"),
    (_glued("N5", "D4", "M3"), "meet-semilattice"),
    (_glued("M3", "D4"), "meet-semilattice"),
    (_times_chain("M3", 2), "meet-semilattice"),
    (_times_chain("N5", 2), "meet-semilattice"),
    (_glued("D4", "C3", "D4"), "distributive-lattice"),
    (_times_chain("D4", 2), "boolean-algebra"),
])
def test_classify_matches_brute_force_on_glued_m3_and_n5(p, kind):
    # the last two are distributive controls; each again without its least
    # element, index 0
    assert _assert_classify_matches_brute(p) == kind
    _assert_classify_matches_brute(_sub_order(p, range(1, p.n)))


def test_classify_and_prime_filters_on_every_construction_path():
    """The kept Birkhoff data starts empty however a poset is made: by
    Poset, validate_poset, dual, and the lattices of sets. Prime filters
    are read before and after classify."""
    for s in _made_on_every_path():
        primes = sorted(brute_prime_filters(s))
        assert list(prime_filters(s).masks) == primes
        c = classify(s.base)
        assert c.kind == s.kind == brute_kind(s, *brute_tables(s))
        assert list(prime_filters(c).masks) == primes
        fresh = classify(Poset(s.labels, s.base.up))
        assert (fresh.kind, fresh.top, fresh.bottom, fresh.complement) == (
            c.kind, c.top, c.bottom, c.complement)


def _made_on_every_path():
    """The 2x3 grid as a Poset, validated, dualized, and as lattices of sets,
    and 2^3 as a powerset."""
    q = _product_2x3()
    ups = upper_sets(q.up)
    return [classify(Poset(q.labels, q.up)), classify(q), classify(q.dual()),
            structure_from_closed_masks(q.labels, ups), powerset_structure(3),
            _lattice_of_upsets(q.labels, ups)]


def test_dlat_spectrum_is_the_kept_birkhoff_and_a_plain_spectrum():
    """The dlat spectrum of a lattice is the Birkhoff object kept on its
    poset, and it has the points, labels, basic sets and order of a plain
    Spectrum over its points: ^ and the label of each point's least element,
    the transpose of the points, and their inclusion order."""
    made = _made_on_every_path() + [powerset_structure(k) for k in range(6)]
    made += [lower_set_lattice(p) for p in all_posets_up_to(5)]
    for s in made:
        sp = spectrum(s, "dlat")
        assert sp is s.base.birkhoff and isinstance(sp, Spectrum)
        up = s.base.up
        plain = Spectrum(sp.points, lambda m: "^" + s.labels[up.index(m)])
        assert (sp.points, sp.labels, sp.basics, sp.order) == (
            plain.points, plain.labels, plain.basics, plain.order)
        assert sp.basics == tuple(transpose(s.n, sp.points.masks))
        assert sp.order == tuple(inclusion_rows(sp.points.masks))


def _product_2x3():
    pairs = [(f"{i}{j}", f"{k}{m}") for i in range(2) for j in range(3)
             for k in range(2) for m in range(3) if i <= k and j <= m]
    return validate_poset([f"{i}{j}" for i in range(2) for j in range(3)], pairs)


def _boolean_cases():
    rng = random.Random(5)
    cases = [powerset_structure(k).base for k in range(6)]
    cases += [chain_structure(n).base for n in range(1, 6)] + [_product_2x3()]
    cases += [lower_set_lattice(random_poset(rng, rng.randint(1, 4), rng.random())).base
              for _ in range(30)]
    return [shuffled(p, rng) for p in cases]


@pytest.mark.parametrize("p", _boolean_cases())
def test_boolean_kind_and_complements_match_definition(p):
    s = classify(p)
    comps = [brute_complement(s, a) for a in range(s.n)]
    assert (s.kind == "boolean-algebra") == (None not in comps)
    assert s.complement == (tuple(comps) if None not in comps else None)


def test_boolean_cases_include_non_boolean_distributive_lattices():
    kinds = [classify(p).kind for p in _boolean_cases()]
    assert "boolean-algebra" in kinds and "distributive-lattice" in kinds
    assert classify(_product_2x3()).kind == "distributive-lattice"


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


def raises_exactly(call, message):
    """call() raises KindMismatch itself, not a subclass, with exactly message."""
    with pytest.raises(KindMismatch) as info:
        call()
    assert (type(info.value), str(info.value)) == (KindMismatch, message)


# kind -> (a structure without the needed kind, one with it, what it needs)
GATE_CASES = {
    "meet-hom": ("A2", "C3", "meet-semilattices"),
    "lattice-hom": ("A2", "C3", "bounded lattices"),
    "boolean-hom": ("C3", "D4", "boolean algebras"),
    "disjunctive-hom": ("N5", "C3", "dd-lattices"),
}


@pytest.mark.parametrize("kind", GATE_CASES)
def test_the_morphism_kind_gate_names_the_kind_and_what_it_needs(kind):
    # either side lacking the kind trips the gate, before any map is read
    lacking, having, needs = GATE_CASES[kind]
    without, with_, message = mk(lacking), mk(having), f"{kind} needs {needs}"
    for src, tgt in ((without, with_), (with_, without), (without, without)):
        f = StructureMorphism(src, tgt, [0] * src.n, kind)
        raises_exactly(lambda: is_homomorphism(f), message)
        raises_exactly(lambda: enumerate_homomorphisms(src, tgt, kind), message)


def test_the_morphism_kind_gate_rejects_an_unknown_kind():
    c3 = mk("C3")
    raises_exactly(lambda: enumerate_homomorphisms(c3, c3, "bogus"),
                   "unknown morphism kind 'bogus'")
    with pytest.raises(InputFormatError, match=r"^unknown morphism kind 'bogus'$"):
        StructureMorphism(c3, c3, (0, 1, 2), "bogus")


def test_is_lattice_matches_the_brute_force_tables_at_every_lower_kind():
    # a top, a bottom and every meet and join, whatever kind s is taken at
    outcomes, posets = set(), all_posets_up_to(6)
    assert len(posets) == 405
    for p in posets:
        s = classify(p)
        meet, join = brute_tables(s)
        rng = range(s.n)
        expected = (None not in meet.values() and None not in join.values()
                    and any(all(s.leq(y, x) for y in rng) for x in rng)
                    and any(all(s.leq(x, y) for y in rng) for x in rng))
        for kind in KINDS[:s.rank() + 1]:
            assert s.with_kind(kind).is_lattice() == expected, (p, kind)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_meets_are_scanned_at_most_once_per_poset(monkeypatch):
    """classify, two lattice tests and the lattice-hom gate read the one
    verdict kept on the poset: a bounded poset that is not distributive is
    scanned once, and a distributive one or one with no top never."""
    real, scans = structures._closed, []

    def counted(rows):
        scans.append(rows)
        return real(rows)

    monkeypatch.setattr(structures, "_closed", counted)
    per_poset = []
    for q in all_posets_up_to(5):
        before = len(scans)
        s = classify(Poset(q.labels, q.up))  # a fresh poset keeps no verdict
        lattice = s.is_lattice()
        assert s.is_lattice() == lattice
        if lattice:
            assert enumerate_homomorphisms(s, s, "lattice-hom")
        else:
            with pytest.raises(KindMismatch):
                enumerate_homomorphisms(s, s, "lattice-hom")
        per_poset.append(len(scans) - before)
    assert len(per_poset) == 87 and set(per_poset) == {0, 1}


def test_enumerate_boolean_homs_counts_atom_maps():
    # Boolean homs 2^a -> 2^b correspond to maps atoms(2^b) -> atoms(2^a),
    # a^b of them (one from 2^0 to itself, none from 2^0 to 2^b, b > 0)
    powers = [powerset_structure(k) for k in range(5)]
    for (a, src), (b, tgt) in itertools.product(enumerate(powers), repeat=2):
        homs = enumerate_homomorphisms(src, tgt, "boolean-hom")
        assert len({h.map for h in homs}) == len(homs) == a ** b
        assert all(is_homomorphism(h) for h in homs)


def test_enumerate_boolean_homs_guards_the_atom_map_space():
    # 2 atoms to the power of 3 atoms is 8 > 4^1
    b2, b3 = powerset_structure(2), powerset_structure(3)
    assert len(enumerate_homomorphisms(b2, b2, "boolean-hom", bound=1)) == 4
    with pytest.raises(CarrierTooLarge, match=r"^boolean-hom atom-map space exceeds the bound$"):
        enumerate_homomorphisms(b2, b3, "boolean-hom", bound=1)


def test_monotone_maps_of_shuffled_sources_match_the_map_scan():
    # index order of a shuffled poset need not be a linear extension, so the
    # search runs along another order and permutes its maps back
    rng = random.Random(1)
    targets = [chain_structure(2), classify(validate_poset(["0", "a", "b"],
                                                           [("0", "a"), ("0", "b")]))]
    permuted = 0
    for p in all_posets_up_to(5):
        src = classify(shuffled(p, rng))
        permuted += sorted(range(src.n), key=src.base.dn.__getitem__) != list(range(src.n))
        for tgt in targets:
            assert sorted(_monotone_maps(src, tgt)) == brute_class_maps(src, tgt, "monotone")
    assert permuted > 0


def test_enumerate_meet_homs_against_filter():
    c3 = mk("C3")
    homs = enumerate_homomorphisms(c3, c3, "meet-hom")
    brute = [m for m in itertools.product(range(3), repeat=3)
             if is_homomorphism(StructureMorphism(c3, c3, m, "meet-hom"))]
    assert sorted(h.map for h in homs) == sorted(brute)


def test_enumerate_homomorphisms_matches_the_map_scan():
    small = [classify(p) for p in all_posets_up_to(4)]
    for src in small:
        for tgt in small:
            for kind in MORPHISM_KINDS:
                if not hom_kind_supported(src, tgt, kind):
                    with pytest.raises(KindMismatch):
                        enumerate_homomorphisms(src, tgt, kind)
                    continue
                homs = enumerate_homomorphisms(src, tgt, kind)
                assert [h.map for h in homs] == brute_class_maps(src, tgt, kind)


def test_enumerate_homomorphisms_guards_the_map_space():
    c5 = chain_structure(5)
    with pytest.raises(CarrierTooLarge, match=r"^map space 5\^5 exceeds the enumeration bound$"):
        enumerate_homomorphisms(c5, c5, "monotone", bound=5)


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
    # a map that is not monotone names the first pair it breaks
    c3 = mk("C3")
    reversal = StructureMorphism(c3, c3, (2, 1, 0), "monotone")
    assert is_flat_map(reversal) == (False, {"condition": "monotone", "pair": ("0", "a")})


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
    assert order_isomorphism(mk("C3").base, mk("C4").base) is None
    assert order_isomorphism(mk("C4").base, mk("C3").base, pins={0: 0}) is None
    assert canonical_form(mk("C4").base) != canonical_form(mk("D4").base)


@functools.cache
def labelled_posets(n: int) -> list[Poset]:
    """Every naturally labelled poset on n points, in generation order."""
    labels = [f"x{i}" for i in range(n)]
    return [Poset(labels, [sum(1 << j for j in range(n) if rows[j] >> i & 1)
                           for i in range(n)])
            for rows in labelled_down_rows(n)]


@functools.cache
def brute_certificates(n: int) -> list[tuple]:
    return [brute_canonical(p) for p in labelled_posets(n)]


def crowns(*sizes: int) -> Poset:
    """Disjoint crowns: in each, minimal a_i lies below maximal b_i and
    b_(i+1 mod k). Color refinement gives all minimal points one color and
    all maximal points another, whatever the sizes."""
    labels, pairs = [], []
    for c, k in enumerate(sizes):
        labels += [f"a{c}.{i}" for i in range(k)] + [f"b{c}.{i}" for i in range(k)]
        pairs += [(f"a{c}.{i}", f"b{c}.{(i + d) % k}") for i in range(k) for d in (0, 1)]
    return validate_poset(labels, pairs)


def numbered(n: int, covers) -> Poset:
    return validate_poset([f"x{i}" for i in range(n)], [(f"x{a}", f"x{b}") for a, b in covers])


def ordinal_sum(*sizes: int) -> Poset:
    """Antichains of these sizes stacked, each point below every point of
    the next: two sizes give a complete bipartite order."""
    starts = list(itertools.accumulate(sizes, initial=0))
    return numbered(starts[-1], [(a, b) for t in range(len(sizes) - 1)
                                 for a in range(starts[t], starts[t + 1])
                                 for b in range(starts[t + 1], starts[t + 2])])


def with_pendant_twins(p: Poset, at: int, above: int = 0, below: int = 0) -> Poset:
    """p with `above` new points covering point `at` and `below` new points
    covered by it: each batch is one group of twins."""
    labels = [*p.labels, *(f"u{k}" for k in range(above)), *(f"d{k}" for k in range(below))]
    pairs = [(p.labels[i], p.labels[j]) for i, j in cover_pairs(p.up)]
    pairs += [(p.labels[at], f"u{k}") for k in range(above)]
    pairs += [(f"d{k}", p.labels[at]) for k in range(below)]
    return validate_poset(labels, pairs)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_form_partitions_like_brute_force(n):
    # the pairs form a bijection between the two sets of keys
    keys = set(zip(map(canonical_form, labelled_posets(n)), brute_certificates(n)))
    assert len(keys) == len({a for a, _ in keys}) == len({b for _, b in keys})


@pytest.mark.parametrize("seed", range(3))
def test_canonical_form_separates_like_brute_force_on_random_pairs(seed):
    rng = random.Random(seed)
    n = 6 + seed % 2
    p = random_poset(rng, n, 0.3)
    pairs = sum(map(int.bit_count, p.up))
    other = random_poset(rng, n, 0.3)
    while sum(map(int.bit_count, other.up)) != pairs:
        other = random_poset(rng, n, 0.3)
    key, brute = canonical_form(p), brute_canonical(p)
    assert canonical_form(shuffled(p, rng)) == key
    for q in (shuffled(p.dual(), rng), shuffled(other, rng)):
        assert (canonical_form(q) == key) == (brute_canonical(q) == brute)


def test_refined_colors_are_numbered_as_by_list_index():
    rng = random.Random(6)
    cases = all_posets_up_to(5) + [crowns(4), crowns(2, 2)]
    cases += [shuffled(random_poset(rng, rng.randint(6, 20), rng.random() * 0.4), rng)
              for _ in range(40)]
    cases += [shuffled(lower_set_lattice(random_poset(rng, 5, 0.3)).base, rng)
              for _ in range(10)]
    for p in cases:
        assert _refine_colors(p) == listed_refined_colors(p)


def test_canonical_form_separates_posets_colors_cannot():
    one, two = crowns(4), crowns(2, 2)
    assert canonical_form(one)[:2] == canonical_form(two)[:2]
    assert order_isomorphism(one, two) is None
    assert canonical_form(one) != canonical_form(two)


@pytest.mark.parametrize("p", [
    Poset([f"x{i}" for i in range(7)], [1 << i for i in range(7)]),  # one color class
    crowns(2, 2).dual(),
    *(random_poset(random.Random(seed), 7, 0.3) for seed in range(3)),
    # twin-rich posets on 10 to 12 points
    numbered(12, []), ordinal_sum(6, 6), ordinal_sum(3, 4, 3), ordinal_sum(2, 2, 2, 2, 2),
    ordinal_sum(5, 1, 5), with_pendant_twins(crowns(3), 3, above=3, below=2),
    with_pendant_twins(with_pendant_twins(crowns(4), 4, above=2), 0, below=2),
], ids=["antichain", "crowns", "random0", "random1", "random2", "antichain12", "K66",
        "sum343", "sum22222", "sum515", "crown3-twins", "crown4-twins"])
def test_canonical_form_is_invariant_under_relabelling(p):
    rng = random.Random(0)
    key = canonical_form(p)
    assert key[0] == p.n
    for _ in range(2):
        assert canonical_form(shuffled(p, rng)) == key
    # the least relabelled up-rows are those of a copy of p
    assert order_isomorphism(p, Poset(p.labels, key[2])) is not None


def orderings(colors) -> int:
    """The relabellings that list the color classes in color order."""
    return math.prod(math.factorial(colors.count(c)) for c in set(colors))


def degree_colors(p: Poset) -> list[int]:
    """The colors before any refinement round: (down-degree, up-degree), ranked."""
    degrees = [(p.dn[i].bit_count(), p.up[i].bit_count()) for i in range(p.n)]
    return [sorted(set(degrees)).index(d) for d in degrees]


def refinement_exit_cases(exit: str) -> list[Poset]:
    """Posets on which canonical_form's refinement ends at the given exit:
    before any round, as the degree colors already allow at most 2n
    orderings; after some rounds that split a class; or at a coloring no
    round splits that still allows more than 2n orderings."""
    if exit == "degrees":  # chains, and two 3-chains (2^3 orderings on 6 points)
        return [numbered(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 5, 7)] + [
            numbered(6, [(0, 1), (1, 2), (3, 4), (4, 5)])]
    if exit == "stable":  # the 7-antichain, crowns, three 2-chains (3! 3! orderings)
        return [numbered(7, []), crowns(4), crowns(2, 2), numbered(6, [(0, 1), (2, 3), (4, 5)])]
    rng, cases = random.Random(0), []
    while len(cases) < 3:
        p = random_poset(rng, 7, 0.2)
        if orderings(degree_colors(p)) > 14 and _refine_colors(p, 14) != degree_colors(p):
            cases.append(p)
    # on these, one round leaves at most 16 orderings and a further one would split
    return cases + [numbered(8, [(0, 1), (0, 6), (2, 3), (2, 7), (4, 6), (5, 6)]),
                    numbered(8, [(0, 2), (0, 6), (1, 2), (1, 4), (3, 6), (3, 7), (5, 7)])]


@pytest.mark.parametrize("exit", ["degrees", "rounds", "stable"])
def test_canonical_form_is_complete_at_each_refinement_exit(exit):
    rng = random.Random(1)
    cases = refinement_exit_cases(exit)
    for p in cases:
        bound, degrees, colors = 2 * p.n, degree_colors(p), _refine_colors(p, 2 * p.n)
        if exit == "degrees":
            assert orderings(degrees) <= bound and colors == degrees
        elif exit == "rounds":
            assert orderings(degrees) > bound and colors != degrees
            assert orderings(colors) <= bound or colors == _refine_colors(p)
        else:
            assert orderings(colors) > bound and colors == _refine_colors(p)
        key = canonical_form(p)
        for _ in range(3):
            assert canonical_form(shuffled(p, rng)) == key
        # the least relabelled up-rows are those of a copy of p
        assert order_isomorphism(p, Poset(p.labels, key[2])) is not None
    if exit == "rounds":
        assert any(_refine_colors(p, 2 * p.n) != _refine_colors(p) for p in cases)
    cases += [shuffled(p.dual(), rng) for p in cases if p.n < 8]  # brute_canonical takes 8! steps
    pairs = itertools.combinations(zip(map(canonical_form, cases), map(brute_canonical, cases)), 2)
    assert all((a == b) == (c == d) for (a, c), (b, d) in pairs)


def twin_rich_posets() -> list[Poset]:
    """Antichains, complete bipartite orders, ordinal sums of antichains
    and crowns with pendant twins, on at most 7 points."""
    return [numbered(n, []) for n in range(1, 8)] + [
        ordinal_sum(*sizes) for sizes in [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (2, 5), (1, 6),
                                          (1, 2, 1), (2, 1, 2), (2, 2, 2), (3, 1, 3), (1, 3, 1),
                                          (1, 1, 2, 1), (2, 1, 1, 2)]
    ] + [with_pendant_twins(crowns(2), 2, above=2), with_pendant_twins(crowns(2), 2, above=3),
         with_pendant_twins(crowns(2), 0, below=2),
         with_pendant_twins(with_pendant_twins(crowns(2), 2, above=2), 0, below=1),
         with_pendant_twins(numbered(3, [(0, 1), (1, 2)]), 1, above=2, below=2)]


def test_canonical_form_separates_twin_rich_posets_like_brute_force():
    rng = random.Random(3)
    cases = twin_rich_posets()
    cases += [shuffled(p.dual(), rng) for p in cases]
    for p in cases:
        assert canonical_form(shuffled(p, rng)) == canonical_form(p)
    pairs = itertools.combinations(zip(map(canonical_form, cases), map(brute_canonical, cases)), 2)
    assert all((a == b) == (c == d) for (a, c), (b, d) in pairs)


def test_canonical_form_keys_of_the_12_antichain_and_k66_are_pinned():
    # one twin group each class: 1 ordering, where the points would give 12! or 6! 6!
    assert canonical_form(numbered(12, [])) == (12, (0,) * 12, tuple(1 << k for k in range(12)))
    assert canonical_form(ordinal_sum(6, 6)) == (
        12, (0,) * 6 + (1,) * 6,
        tuple(1 << k | 0xFC0 for k in range(6)) + tuple(1 << k for k in range(6, 12)))


def test_all_posets_output_is_pinned():
    # the SHA-256 of every poset of all_posets(1..7), fed in order: the
    # output must not depend on how canonical_form colors or searches
    digest = hashlib.sha256()
    for n in range(1, 8):
        for p in all_posets(n):
            digest.update(repr((p.labels, p.up, p.dn)).encode())
    assert digest.hexdigest() == (
        "0e74d935d8e11ff3fc733d55168ffbd301a4fa7b40f8f1fa50c3b854bde9985b")


def test_poset_counts():
    # OEIS A000112
    assert [len(all_posets(n)) for n in range(1, 8)] == [1, 2, 5, 16, 63, 318, 2045]


def test_all_posets_on_eight_points_is_pinned(monkeypatch):
    # the 16,999 posets on 8 points leave the cache with the test
    monkeypatch.setattr(corpus, "_POSET_CACHE", dict(corpus._POSET_CACHE))
    assert len(all_posets(8)) == 16999  # OEIS A000112
    digest = hashlib.sha256()
    for p in all_posets(8):
        digest.update(repr((p.labels, p.up, p.dn)).encode())
    assert digest.hexdigest() == (
        "2540836f091821d5485ee495b8b4212f1d123404fae3beb6e626d099acc75e75")


def test_all_preorders_match_the_relation_scan():
    for n in range(5):
        assert all_preorders(n) == brute_preorders(n)


def test_preorders_on_five_points():
    rows = all_preorders(5)
    assert len(rows) == 6942  # OEIS A000798
    assert len(set(rows)) == len(rows)
    for r in rows:
        assert all(r[i] >> i & 1 for i in range(5))
        assert all(not r[j] & ~r[i] for i in range(5) for j in bits(r[i]))


@pytest.mark.parametrize("n", range(1, 7))
def test_all_posets_keeps_the_first_labelled_poset_of_each_class(n):
    # brute_canonical on 4,824 six-point posets is too slow for every run;
    # there the classes are keyed by canonical_form, checked against it above
    keys = brute_certificates(n) if n <= 5 else map(canonical_form, labelled_posets(n))
    first = {}
    for p, key in zip(labelled_posets(n), keys):
        first.setdefault(key, p)
    assert ([(p.labels, p.up, p.dn) for p in all_posets(n)]
            == [(p.labels, p.up, p.dn) for p in first.values()])


def test_all_posets_extends_only_the_class_representatives(monkeypatch):
    calls = collections.Counter()

    def counted(p):
        calls[p.n] += 1
        # the prefix's twins: points below n - 1 with equal strict rows on 0..n-2
        last = p.n - 1
        rows = [((p.up[i] & ~(1 << last)) ^ 1 << i, p.dn[i] ^ 1 << i) for i in range(last)]
        down = p.dn[last]
        assert not any(rows[i] == rows[j] and down >> j & 1 and not down >> i & 1
                       for i, j in itertools.combinations(range(last), 2))
        return canonical_form(p)

    def validate(self, labels, up):
        raise AssertionError("a candidate poset was validated again")

    monkeypatch.setattr(corpus, "_POSET_CACHE", {})
    monkeypatch.setattr(corpus, "canonical_form", counted)
    monkeypatch.setattr(Poset, "__init__", validate)
    assert len(all_posets(6)) == 318
    # each representative on k - 1 points, extended by each of its down-sets
    # that holds no twin without the twins before it
    assert [calls[k] for k in range(1, 7)] == [1, 2, 6, 22, 104, 596]
    assert sum(calls.values()) == 731


# ------------------------------------------------------ recovery ingredients

def test_join_irreducibles_match_definition():
    # x is join-irreducible iff it is not the join of its strict down-set
    lattices = [s for s in map(classify, all_posets_up_to(5)) if s.is_lattice()]
    for seed in range(8):
        rng = random.Random(seed)
        lattices.append(classify(shuffled(lower_set_lattice(random_poset(rng, 4)).base, rng)))
    for s in lattices:
        expected = 0
        for x in range(s.n):
            join = s.bottom
            for y in range(s.n):
                if y != x and s.leq(y, x):
                    join = brute_join(s, join, y)
            if join != x:
                expected |= 1 << x
        assert join_irreducible_mask(s.base) == expected


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


# --------------------------------------------------------- up-set enumeration

def _reflexive_transitive(rows: list[int]) -> list[int]:
    """Close a relation by adding the rows of successors until nothing changes."""
    rows = [r | 1 << i for i, r in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            grown = row
            for j in bits(row):
                grown |= rows[j]
            if grown != row:
                rows[i], changed = grown, True
    return rows


# random relations on 0-7 points, closed to preorders; most are not antisymmetric
preorders = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                       min_size=n, max_size=n)).map(_reflexive_transitive)


@given(preorders)
@example([])
@example([0b011, 0b011, 0b111])  # x0 and x1 below each other
@example([1 << i for i in range(7)])
@settings(max_examples=200)
def test_upper_sets_match_definition(up):
    assert upper_sets(up) == brute_upper_sets(up)


@given(seeds)
@settings(max_examples=60)
def test_poset_upper_and_lower_sets_match_definition(seed):
    rng = random.Random(seed)
    p = random_poset(rng, rng.randint(1, 7), rng.random())
    assert p.upper_set_masks() == brute_upper_sets(p.up)
    assert p.lower_set_masks() == brute_upper_sets(p.dn)


def test_upper_sets_stop_at_the_limit():
    for up in ([1 << i for i in range(5)], [0b011, 0b011, 0b111],
               [0b1111, 0b1110, 0b1100, 0b1000]):
        every = brute_upper_sets(up)
        for limit in (1, 2, len(every) - 1, len(every), len(every) + 1):
            assert upper_sets(up, limit) == every[:limit]


@given(seeds)
@settings(max_examples=60)
def test_upper_sets_stop_at_the_limit_on_relabelled_preorders(seed):
    # relabelled at random, so that index order is not a linear extension
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    density = rng.random() / 2
    rows = transitive_closure([
        1 << i | sum(1 << j for j in range(n) if rng.random() < density)
        for i in range(n)])
    perm = rng.sample(range(n), n)
    up = [0] * n
    for i, row in enumerate(rows):
        up[perm[i]] = sum(1 << perm[j] for j in bits(row))
    every = brute_upper_sets(up)
    for limit in (1, 2, len(every) - 1, len(every), len(every) + 1):
        assert upper_sets(up, limit) == every[:limit]


def test_upper_sets_cut_every_round_at_the_limit():
    # the 40-point antichain has 2^40 up-sets; its first 1025 are the masks
    # 0..1024, built without listing the others
    assert upper_sets([1 << i for i in range(40)], 1025) == list(range(1025))


def _with_free_points(up, places):
    """The preorder up with a point comparable to no other inserted at each
    index of places in turn, the points at or after it moving up by one."""
    up = list(up)
    for k in places:
        low = (1 << k) - 1
        up = [r & low | (r & ~low) << 1 for r in up]
        up.insert(k, 1 << k)
    return up


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n)
        .map(_reflexive_transitive),
        st.lists(st.integers(min_value=0, max_value=n + 3), max_size=3))))
@example(([], [0, 0, 0]))
@example(([0b01, 0b11], [1, 0]))  # free points before and between the points of a 2-chain
@settings(max_examples=100)
def test_upper_sets_with_free_points_match_definition(case):
    up, places = case
    up = _with_free_points(up, [min(k, len(up) + i) for i, k in enumerate(places)])
    every = brute_upper_sets(up)
    assert upper_sets(up) == every
    for limit in range(1, len(every) + 2):
        assert upper_sets(up, limit) == every[:limit]


def test_upper_sets_output_is_pinned():
    # the SHA-256 of upper_sets over every preorder on at most 4 points and
    # the discrete rows on 0..12 points, at each limit, fed in order: the
    # output must not depend on how a round extends the family
    rows = [up for n in range(5) for up in all_preorders(n)]
    rows += [tuple(1 << i for i in range(n)) for n in range(13)]
    digest = hashlib.sha256()
    for up in rows:
        for limit in (None, 1, 2, 3, 5, 8):
            digest.update(repr((up, limit, upper_sets(up, limit))).encode())
    assert digest.hexdigest() == (
        "8574f0af1becef4c525d98479427b4b8afcf1795ccc4ad3bb3ecbae2aa0be478")


def test_upper_sets_leave_no_reference_cycles():
    # garbage cycles made by the enumerator would survive with collection
    # off and be found by the next collect
    rows = [[((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)] for n in range(9)]
    rows += [[1 << i for i in range(8)], [0b011, 0b011, 0b111]]
    # x0 and x2 free, x1 < x3, x4 ~ x5: free and constrained rounds mixed
    rows += [[0b000001, 0b001010, 0b000100, 0b001000, 0b110000, 0b110000]]
    gc.collect()
    gc.disable()
    try:
        for up in rows:
            upper_sets(up)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_bits_lists_the_set_positions_in_order():
    rng = random.Random(9)
    # below 256 bits reads a kept table, above it walks the mask
    masks = list(range(1 << 10)) + [rng.getrandbits(rng.randint(250, 300)) for _ in range(40)]
    for m in masks:
        assert list(bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_transpose_matches_its_definition():
    # column i holds bit k exactly when row k holds bit i; empty rows, no
    # rows, and more columns than rows included. Rows go 8 at a time and a
    # byte at a time, so widths up to 300 (mostly not a multiple of 8),
    # 9-40 rows (several groups, the last one short) and rows holding their
    # highest bits are covered too
    rng = random.Random(13)
    cases = [(0, []), (4, []), (3, [0, 0]), (6, [0b101, 0, 0b11]), (1, [1, 0, 1])]
    cases += [(n, [rng.getrandbits(n) for _ in range(rng.randint(0, 12))])
              for n in (rng.randint(0, 12) for _ in range(60))]
    cases += [(n, [rng.getrandbits(n) for _ in range(rng.randint(9, 40))])
              for n in [8, 9, 16, 63, 64, 65, 255, 256, 257, 300]
              + [rng.randint(13, 300) for _ in range(20)]]
    cases += [(n, [((1 << n) - 1) ^ rng.getrandbits(n // 4) for _ in range(rows)])
              for n, rows in [(7, 9), (8, 17), (100, 24), (255, 33), (300, 40)]]
    cases += [(n, [1 << (n - 1)] * rows + [(1 << n) - 1])
              for n, rows in [(1, 8), (9, 15), (129, 39)]]
    for n, rows in cases:
        cols = transpose(n, rows)
        assert cols == [sum(1 << k for k, row in enumerate(rows) if row >> i & 1)
                        for i in range(n)], (n, rows)
        assert transpose(len(rows), cols) == rows


DEDEKIND = [2, 3, 6, 20, 168, 7581]  # M(0)..M(5), OEIS A000372


@pytest.mark.parametrize("n", range(5))
def test_count_upper_sets_on_every_small_preorder(n):
    for up in brute_preorders(n):
        assert count_upper_sets(up) == len(brute_upper_sets(up))


@pytest.mark.parametrize("seed", range(40))
def test_count_upper_sets_on_random_preorders(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 11)
    density = rng.random() * 0.4
    rows = [1 << i | sum(1 << j for j in range(n) if rng.random() < density)
            for i in range(n)]
    up = transitive_closure(rows)
    assert count_upper_sets(up) == len(brute_upper_sets(up))


def test_count_upper_sets_gives_the_dedekind_numbers():
    # the up-sets of the Boolean lattice 2^k are its monotone Boolean functions
    for k, m in enumerate(DEDEKIND):
        assert count_upper_sets(powerset_structure(k).base.up) == m


def test_count_upper_sets_counts_wide_orders_without_listing():
    assert count_upper_sets([1 << i for i in range(40)]) == 1 << 40
    chain = [((1 << 40) - 1) ^ ((1 << i) - 1) for i in range(40)]
    assert count_upper_sets(chain) == 41


@pytest.mark.parametrize("n", range(6))
def test_the_family_of_every_subset_answers_as_the_listed_one(n):
    lazy = SetFamily(n, range(1 << n))
    listed = SetFamily._of_sorted(n, list(range(1 << n)))
    assert lazy == listed and listed == lazy and hash(lazy) == hash(listed)
    assert SetFamily._of_sorted(n, range(1 << n)) == lazy == SetFamily(n, reversed(range(1 << n)))
    assert repr(lazy) == repr(listed) == f"SetFamily(n={n}, {1 << n} sets)"
    assert len(lazy) == 1 << n and list(lazy) == list(range(1 << n))
    for family in (lazy, listed):
        assert 0 in family and (1 << n) - 1 in family
        assert Subset(n, 0) in family and Subset(n, (1 << n) - 1) in family
        assert -1 not in family and 1 << n not in family
    # 2^n - 1 masks are not every subset, whichever one is missing
    for gone in range(1 << n):
        fewer = SetFamily(n, [m for m in range(1 << n) if m != gone])
        assert lazy != fewer and fewer != lazy and gone not in fewer
    assert lazy != SetFamily(n + 1, range(1 << n))
    # listed on first read and kept, answering as before
    masks = lazy.masks
    assert type(masks) is tuple and masks == tuple(range(1 << n)) and lazy.masks is masks
    assert lazy == listed and hash(lazy) == hash(listed) and 1 << n not in lazy


def test_count_upper_sets_counts_chains_past_the_recursion_limit():
    # each rest of a chain drops one point, so a count by recursion would
    # nest once per point
    n = sys.getrecursionlimit() + 10
    chain = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
    assert count_upper_sets(chain) == n + 1


def test_count_upper_sets_counts_a_long_chain():
    # every rest of a chain is a chain, so its least point is taken with no
    # scan for the point with the most comparables
    n = 2000
    chain = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)]
    assert count_upper_sets(chain) == 2001
    assert count_upper_sets([(1 << i + 1) - 1 for i in range(n)]) == 2001
