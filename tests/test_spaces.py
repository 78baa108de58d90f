import functools
import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_antisymmetry_failure,
    brute_clopen_uppers,
    brute_cover_pairs,
    brute_frame_pullback,
    brute_preorders,
    brute_topology_verdict,
    brute_upper_sets,
    brute_weakly_indecomposable,
)
import ordua
from ordua import spaces, structures
from ordua.corpus import all_preorders, all_posets_up_to
from ordua.dualities import (
    coherent_of_priestley,
    extended_image_check,
    priestley_of_coherent,
)
from ordua.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InputFormatError,
    NotPriestley,
    NotT0,
)
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    alexandrov_space,
    check_frame_pullback,
    check_patch_characterization,
    generate_topology,
    is_continuous,
    patch_space,
    preorder_coreflection,
    priestley_boolean_algebra,
    priestley_check,
    specialization_preorder,
    upper_open_reduct,
    weakly_indecomposable_clopen_uppers,
)
from ordua.structures import (
    SetFamily,
    cover_pairs,
    transitive_closure,
    upper_sets,
    validate_poset,
)


@pytest.mark.parametrize("labels,up,message", [
    (["a", "a"], (0b01, 0b10), "bad preorder carrier"),
    (["a", "b"], (0b01,), "bad preorder carrier"),
    (["a", "b"], (0b01, 0b110), "preorder row 1 not reflexive/in range"),
    (["a", "b"], (0b01, 0b00), "preorder row 1 not reflexive/in range"),
    (["a", "b", "c"], (0b011, 0b110, 0b100), "preorder not transitive at a"),
], ids=["labels", "rows", "range", "reflexive", "transitive"])
def test_preorder_constructor_rejects_each_bad_relation(labels, up, message):
    with pytest.raises(InputFormatError) as err:
        Preorder(labels, up)
    assert type(err.value) is InputFormatError and str(err.value) == message


@pytest.mark.parametrize("labels,up", [(["a", "a"], (0b01, 0b10)), (["a", "b"], (0b01,))],
                         ids=["labels", "rows"])
def test_preorder_from_rows_checks_the_carrier(labels, up):
    with pytest.raises(InputFormatError) as err:
        Preorder._of_rows(labels, up)
    assert type(err.value) is InputFormatError and str(err.value) == "bad preorder carrier"


def sierpinski() -> FiniteSpace:
    return FiniteSpace(["0", "1"], [0b00, 0b10, 0b11])


def discrete(n: int) -> FiniteSpace:
    return FiniteSpace([f"x{i}" for i in range(n)], range(1 << n))


def indiscrete(n: int) -> FiniteSpace:
    return FiniteSpace([f"x{i}" for i in range(n)], [0, (1 << n) - 1])


def chain_preorder(n: int) -> Preorder:
    p = validate_poset([f"x{i}" for i in range(n)],
                       [(f"x{i}", f"x{i+1}") for i in range(n - 1)])
    return Preorder.from_poset(p)


# ----------------------------------------------------------------- validation

def test_finite_space_requires_topology():
    with pytest.raises(InputFormatError):
        FiniteSpace(["a", "b"], [0b00, 0b01, 0b10])  # missing full set
    with pytest.raises(InputFormatError):
        FiniteSpace(["a", "b", "c"], [0b000, 0b011, 0b110, 0b111])  # no meet
    with pytest.raises(InputFormatError):
        # {x0} and {x1} are open but {x0, x1} is not, on more than 16 points
        FiniteSpace([f"x{i}" for i in range(17)], [0, (1 << 17) - 1, 1, 2])


def _explicit_families():
    """Every family of subsets of at most 3 points, then random families on
    4 and 5 points: the up-sets of a random preorder, as they are, less one
    set or with one more, and random sets with the empty and full sets."""
    for n in range(4):
        for code in range(1 << (1 << n)):
            yield n, [m for m in range(1 << n) if code >> m & 1]
    rng = random.Random(41)
    for _ in range(600):
        n = rng.choice((4, 5))
        full = (1 << n) - 1
        if rng.random() < 0.6:
            rows = transitive_closure(1 << i | rng.getrandbits(n) & rng.getrandbits(n)
                                      for i in range(n))
            family = brute_upper_sets(rows)
            change = rng.randrange(3)
            if change == 1 and len(family) > 2:
                family.remove(rng.choice(family[1:-1]))
            elif change == 2:
                family.append(rng.randrange(1 << n))
        else:
            family = [0, full] + [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
        yield n, family


def test_finite_space_decides_closure_like_pairwise_closure():
    seen = set()
    for n, masks in _explicit_families():
        want = brute_topology_verdict(n, masks)
        try:
            FiniteSpace([f"x{i}" for i in range(n)], masks)
            got = None
        except InputFormatError as err:
            got = str(err)
        assert got == want, (n, masks)
        family = set(masks)
        meets = all(a & b in family for a in masks for b in masks)
        closed = meets and all(a | b in family for a in masks for b in masks)
        assert (want is None) == ({0, (1 << n) - 1} <= family and closed)
        seen.add((n > 3, want, meets))
    assert {want for big, want, _ in seen if not big} == {
        None, "a topology contains the empty and full sets",
        "family is not closed under intersections", "family is not closed under unions"}
    # a base closed under neither: the message names unions
    assert (True, "family is not closed under unions", False) in seen
    assert (True, "family is not closed under intersections", False) in seen


def test_empty_space_is_allowed():
    sp = FiniteSpace([], [0])
    assert sp.n == 0 and list(sp.opens) == [0]


def test_preordered_space_checks_carrier():
    with pytest.raises(Exception):
        PreorderedSpace(sierpinski(), chain_preorder(3))


# ------------------------------------------------------- topology generation

def test_generate_topology_from_empty_subbasis():
    sp = generate_topology(["a", "b"], SetFamily(2, []))
    assert sorted(sp.opens) == [0b00, 0b11]


def test_generate_topology_sierpinski():
    sp = generate_topology(["0", "1"], SetFamily(2, [0b10]))
    assert sorted(sp.opens) == [0b00, 0b10, 0b11]


def test_generate_topology_counts_on_three_points():
    # all topologies on 3 labelled points, via Alexandrov opens of preorders
    seen = {tuple(sorted(alexandrov_space(Preorder([f"x{i}" for i in range(3)],
                                                   rows)).opens))
            for rows in all_preorders(3)}
    assert len(seen) == 29


@given(st.lists(st.integers(min_value=0, max_value=15), max_size=4))
def test_generate_topology_contains_subbasis(masks):
    sp = generate_topology(["a", "b", "c", "d"], SetFamily(4, masks))
    opens = set(sp.opens)
    assert opens.issuperset(masks)
    # closed under union and intersection
    for u in opens:
        for v in opens:
            assert (u | v) in opens and (u & v) in opens


def test_generate_topology_respects_bound():
    with pytest.raises(CarrierTooLarge):
        generate_topology([f"x{i}" for i in range(5)], SetFamily(5, [1]), bound=4)


# ----------------------------------------------- patch and specialization

def test_patch_of_sierpinski_is_discrete():
    sp = patch_space(["0", "1"], SetFamily(2, sierpinski().opens))
    assert sorted(sp.opens) == [0, 1, 2, 3]


def test_specialization_examples():
    assert specialization_preorder(discrete(2)).up == (0b01, 0b10)
    assert specialization_preorder(sierpinski()).up == (0b11, 0b10)
    total = specialization_preorder(indiscrete(2))
    assert total.up == (0b11, 0b11)
    assert not total.is_antisymmetric()


@given(st.sampled_from(all_preorders(4)))
def test_patch_of_t0_space_is_discrete(rows):
    pre = Preorder(["a", "b", "c", "d"], rows)
    if not pre.is_antisymmetric():
        return
    space = alexandrov_space(pre)
    assert len(patch_space(space.labels, SetFamily(4, space.opens)).opens) == 16


# ------------------------------------------------------ adjunction functors

def test_upper_open_reduct_examples():
    ps = PreorderedSpace(discrete(2), chain_preorder(2))
    assert sorted(upper_open_reduct(ps).opens) == [0b00, 0b10, 0b11]
    eq = Preorder(["x0", "x1"], (0b01, 0b10))
    sp = sierpinski()
    ps2 = PreorderedSpace(FiniteSpace(["x0", "x1"], sp.opens), eq)
    assert sorted(upper_open_reduct(ps2).opens) == sorted(sp.opens)
    ps3 = PreorderedSpace(indiscrete(2), chain_preorder(2))
    assert sorted(upper_open_reduct(ps3).opens) == [0b00, 0b11]


def test_alexandrov_examples():
    assert len(alexandrov_space(chain_preorder(2)).opens) == 3
    assert len(alexandrov_space(chain_preorder(3)).opens) == 4
    antichain = Preorder(["p", "q"], (0b01, 0b10))
    assert len(alexandrov_space(antichain).opens) == 4


def test_preorder_coreflection_examples():
    # discrete topology: specialization is equality, so the meet is equality
    ps = PreorderedSpace(discrete(2), chain_preorder(2))
    assert preorder_coreflection(ps).up == (0b01, 0b10)
    sp = FiniteSpace(["x0", "x1"], sierpinski().opens)
    ps2 = PreorderedSpace(sp, chain_preorder(2))
    assert preorder_coreflection(ps2).up == (0b11, 0b10)


def test_coreflection_after_alexandrov_is_identity():
    for rows in all_preorders(3):
        pre = Preorder(["x0", "x1", "x2"], rows)
        ps = PreorderedSpace(alexandrov_space(pre), pre)
        assert preorder_coreflection(ps).up == pre.up


# ------------------------------------------------------------ priestley check

def test_priestley_check_discrete_plus_order():
    ps = PreorderedSpace(discrete(2), chain_preorder(2))
    report = priestley_check(ps)
    assert report.ok and report.failing_pair is None
    assert len(report.clopen_uppers) == 3


def test_priestley_check_sierpinski_fails_separation():
    sp = FiniteSpace(["x0", "x1"], sierpinski().opens)
    report = priestley_check(PreorderedSpace(sp, chain_preorder(2)))
    assert report.is_compact and report.is_partial_order
    assert not report.separation_ok
    assert report.failing_pair == ("x1", "x0")  # no clopen up-set isolates x1
    assert report.to_dict()["is-priestley"] is False


def test_priestley_check_rejects_preorder_cycles():
    total = Preorder(["x0", "x1"], (0b11, 0b11))
    report = priestley_check(PreorderedSpace(discrete(2), total))
    assert not report.is_partial_order and not report.ok


# ---------------------------------------------- weakly indecomposable uppers

def test_weakly_indecomposable_on_two_point_chain():
    ps = PreorderedSpace(discrete(2), chain_preorder(2))
    assert sorted(weakly_indecomposable_clopen_uppers(ps).masks) == [0b10, 0b11]


def test_weakly_indecomposable_on_antichain():
    anti = Preorder(["x0", "x1"], (0b01, 0b10))
    ps = PreorderedSpace(discrete(2), anti)
    assert sorted(weakly_indecomposable_clopen_uppers(ps).masks) == [0b01, 0b10]


def test_weakly_indecomposable_on_point():
    ps = PreorderedSpace(discrete(1), Preorder(["x0"], (0b1,)))
    assert list(weakly_indecomposable_clopen_uppers(ps).masks) == [0b1]


def _spaces_over_small_posets():
    """Every poset of <= 5 points with the discrete topology, and twice with
    the patch topology of a seeded random family of its up-sets."""
    rng = random.Random(7)
    out = []
    for p in all_posets_up_to(5):
        pre = Preorder.from_poset(p)
        points = FiniteSpace.from_rows(p.labels, [1 << i for i in range(p.n)])
        out.append(PreorderedSpace(points, pre))
        ups = p.upper_set_masks()
        for _ in range(2):
            family = SetFamily(p.n, rng.sample(ups, rng.randint(1, len(ups))))
            out.append(PreorderedSpace(patch_space(p.labels, family), pre))
    return out


def test_weakly_indecomposable_matches_definition():
    checked = 0
    for ps in _spaces_over_small_posets():
        if not priestley_check(ps).ok:
            with pytest.raises(NotPriestley):
                weakly_indecomposable_clopen_uppers(ps)
            continue
        checked += 1
        assert (list(weakly_indecomposable_clopen_uppers(ps).masks)
                == brute_weakly_indecomposable(ps))
    assert checked >= 100


def test_priestley_failing_pair_is_the_first_unseparated_pair():
    # x then y, each ascending: the first x not <= y with no clopen upper set
    # holding x but not y
    for ps in _spaces_over_small_posets():
        uppers = brute_clopen_uppers(ps)
        first = next(((ps.labels[x], ps.labels[y])
                      for x in range(ps.n) for y in range(ps.n)
                      if not ps.preorder.leq(x, y)
                      and not any(u >> x & 1 and not u >> y & 1 for u in uppers)),
                     None)
        report = priestley_check(ps)
        assert report.failing_pair == first
        assert list(report.clopen_uppers) == uppers


def _three_points() -> PreorderedSpace:
    pre = Preorder(["a", "b", "c"], [1, 2, 4])
    return PreorderedSpace(alexandrov_space(pre), pre)


@pytest.mark.parametrize("build,error,message", [
    (lambda: FiniteSpace(["a", "b", "c"], SetFamily(2, [0, 3])), CarrierMismatch,
     "opens do not live on the point carrier"),
    (lambda: generate_topology(["a", "b", "c"], SetFamily(2, [1])), CarrierMismatch,
     "subbasis does not live on the point carrier"),
    (lambda: priestley_boolean_algebra(["a", "b", "c"], SetFamily(2, [1])), CarrierMismatch,
     "family does not live on the point carrier"),
    (lambda: check_patch_characterization(_three_points(), SetFamily(2, [1])),
     CarrierMismatch, "family does not live on the space carrier"),
    (lambda: priestley_boolean_algebra(["a", "b", "c"], SetFamily(3, [1, 2]), 2),
     CarrierTooLarge, "pattern algebra would have 2^3 elements"),
    (lambda: extended_image_check(_three_points(), "bogus"), InputFormatError,
     "unknown extended-image variant 'bogus'"),
], ids=["space", "subbasis", "pattern-algebra", "patch-characterization",
        "pattern-algebra-bound", "extended-image-variant"])
def test_space_builders_reject_what_does_not_fit(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_priestley_layer_lists_no_upper_sets(monkeypatch):
    # the axioms, the weakly indecomposable sets, the coherent reduct, the
    # extended images and the counts of opens and clopen uppers are decided
    # on the n least clopen upper sets, never on the 2^40 clopen uppers of
    # the discrete antichain
    def refuse(*args, **kwargs):
        raise AssertionError("upper sets listed")

    for name in [m.name for m in pkgutil.iter_modules(ordua.__path__)
                 if m.name != "__main__"]:
        module = importlib.import_module(f"ordua.{name}")
        if hasattr(module, "upper_sets"):
            monkeypatch.setattr(module, "upper_sets", refuse)
    assert structures.upper_sets is spaces.upper_sets is refuse
    # the opens and clopens of a discrete space are read without upper_sets,
    # so refuse them directly too
    monkeypatch.setattr(FiniteSpace, "clopen_masks", refuse)
    n = 40
    labels = [f"x{i}" for i in range(n)]
    points = FiniteSpace.from_rows(labels, [1 << i for i in range(n)])
    antichain = Preorder(labels, [1 << i for i in range(n)])
    chain = Preorder(labels, [(1 << n) - (1 << i) for i in range(n)])
    msl_image = {antichain: (False, {"kind": "top-not-weakly-indecomposable"}),
                 chain: (True, None)}
    assert repr(points) == "FiniteSpace(n=40, 1099511627776 opens)"
    clopen_upper_count = {antichain: 2 ** 40, chain: 41}
    for pre in (antichain, chain):
        ps = PreorderedSpace(points, pre)
        report = priestley_check(ps)
        assert report.ok and report.rows == pre.up
        assert report.to_dict()["clopen-upper-count"] == clopen_upper_count[pre]
        assert list(weakly_indecomposable_clopen_uppers(ps).masks) == sorted(pre.up)
        assert coherent_of_priestley(ps).minimal == pre.up
        assert extended_image_check(ps, "coherent-poset") == (True, None)
        assert extended_image_check(ps, "msl") == msl_image[pre]
    assert points._opens is None


def _extended_image_by_definition(ps, variant):
    """The extended-image check straight off its definition, on the brute
    force weakly indecomposable clopen uppers."""
    wi = brute_weakly_indecomposable(ps)
    for x in range(ps.n):
        for y in range(ps.n):
            if not ps.preorder.leq(x, y) and not any(
                    u >> x & 1 and not u >> y & 1 for u in wi):
                return False, {"kind": "separation",
                               "pair": (ps.labels[x], ps.labels[y])}
    if variant == "msl":
        if (1 << ps.n) - 1 not in wi:
            return False, {"kind": "top-not-weakly-indecomposable"}
        for a, b in itertools.combinations(wi, 2):
            if a & b not in wi:
                return False, {"kind": "intersection",
                               "sets": ([ps.labels[i] for i in range(ps.n) if a >> i & 1],
                                        [ps.labels[i] for i in range(ps.n) if b >> i & 1])}
    return True, None


def test_extended_image_check_matches_definition():
    outcomes = set()
    for ps in _spaces_over_small_posets():
        for variant in ("coherent-poset", "msl"):
            if not priestley_check(ps).ok:
                with pytest.raises(NotPriestley):
                    extended_image_check(ps, variant)
                continue
            got = extended_image_check(ps, variant)
            assert got == _extended_image_by_definition(ps, variant)
            outcomes.add((variant, got[0]))
    assert outcomes == {("coherent-poset", True), ("msl", True), ("msl", False)}


def test_weakly_indecomposable_needs_priestley():
    sp = FiniteSpace(["x0", "x1"], sierpinski().opens)
    with pytest.raises(NotPriestley):
        weakly_indecomposable_clopen_uppers(PreorderedSpace(sp, chain_preorder(2)))


# ------------------------------------------------- patch characterization

def test_patch_characterization_holds_by_construction():
    fam = SetFamily(2, [0b10])
    ps = PreorderedSpace(patch_space(["x0", "x1"], fam), chain_preorder(2))
    lhs, rhs, witness = check_patch_characterization(ps, fam)
    assert lhs and rhs and witness is None


def test_patch_characterization_reversed_order_fails_both_sides():
    fam = SetFamily(2, [0b10])
    rev = Preorder(["x0", "x1"], (0b01, 0b11))  # x1 <= x0
    ps = PreorderedSpace(patch_space(["x0", "x1"], fam), rev)
    lhs, rhs, witness = check_patch_characterization(ps, fam)
    assert not lhs and not rhs
    assert witness is not None


def test_patch_characterization_empty_family():
    total = Preorder(["x0", "x1"], (0b11, 0b11))
    ps = PreorderedSpace(indiscrete(2), total)
    lhs, rhs, _ = check_patch_characterization(ps, SetFamily(2, []))
    assert lhs and rhs


def test_patch_characterization_names_an_unseparated_pair():
    # {a} is upper but not open, so no clopen upper member keeps a from b
    ps = PreorderedSpace(FiniteSpace.from_rows("abc", (0b011, 0b010, 0b100)),
                         Preorder("abc", (0b001, 0b010, 0b100)))
    assert check_patch_characterization(ps, SetFamily(3, [0b001])) == (
        False, False, {"kind": "separation", "pair": ("a", "b")})


# ----------------------------------------------------------- frame pullback

def test_frame_pullback_examples():
    assert check_frame_pullback(sierpinski())
    assert check_frame_pullback(discrete(3))
    assert check_frame_pullback(alexandrov_space(chain_preorder(3)))


def test_frame_pullback_requires_t0():
    with pytest.raises(NotT0):
        check_frame_pullback(indiscrete(2))


def test_frame_pullback_builds_no_patch_space(monkeypatch):
    # the minimal opens of a T0 space separate its points, so their patch
    # topology is discrete and needs no generating
    def refuse(*args, **kwargs):
        raise AssertionError("built a patch topology from a family")

    for name in ("patch_space", "minimal_opens", "_discrete", "transitive_closure"):
        monkeypatch.setattr(spaces, name, refuse)
    for space in alexandrov_spaces(4):
        if not space.is_t0():
            with pytest.raises(NotT0):
                check_frame_pullback(space)
            continue
        assert check_frame_pullback(space)
        if space.n:
            message = rf"^topology generation needs carrier <= {space.n - 1}, got {space.n}$"
            with pytest.raises(CarrierTooLarge, match=message):
                check_frame_pullback(space, space.n - 1)


def test_frame_pullback_holds_by_definition_on_every_small_t0_space():
    """The closed form against the patch topology built by brute force, on
    every labelled T0 topology on 1 to 4 points."""
    t0 = [space for space in alexandrov_spaces(4) if space.n and space.is_t0()]
    assert len(t0) == 1 + 3 + 19 + 219
    for space in t0:
        assert brute_frame_pullback(space) and check_frame_pullback(space)


def test_antisymmetry_failure_matches_the_pairwise_walk():
    rng = random.Random(22)
    cases = [rows for n in range(5) for rows in all_preorders(n)]
    assert sum(len(rows) == 4 for rows in cases) == 355
    cases += [transitive_closure(1 << i | rng.getrandbits(n) & rng.getrandbits(n)
                                 for i in range(n))
              for n in range(6, 10) for _ in range(50)]
    found = 0
    for rows in cases:
        want = brute_antisymmetry_failure(rows)
        pre = Preorder([f"x{i}" for i in range(len(rows))], rows)
        assert pre.antisymmetry_failure() == want, rows
        found += want is not None
    assert found > 200


def test_not_t0_names_two_points_with_the_same_opens():
    space = FiniteSpace(["a", "b", "c"], [0b000, 0b001, 0b111])
    for call in (check_frame_pullback, priestley_of_coherent):
        with pytest.raises(NotT0, match=r"^not a T0 space \(pair \('b', 'c'\)\)$"):
            call(space)


# ------------------------------------------------ patch boolean algebra

def test_priestley_boolean_algebra_of_single_set():
    alg = priestley_boolean_algebra(["x0", "x1"], SetFamily(2, [0b10]))
    assert alg.kind == "boolean-algebra" and alg.n == 4


def test_priestley_boolean_algebra_matches_patch_opens():
    full = None
    for p in all_posets_up_to(3):
        fam = SetFamily(p.n, p.upper_set_masks())
        alg = priestley_boolean_algebra(list(p.labels), fam)
        patch = patch_space(list(p.labels), fam)
        full = (1 << p.n) - 1
        # finite patch opens = unions of algebra members = the algebra itself
        assert alg.kind == "boolean-algebra"
        assert alg.n == len(patch.opens)
        assert all(full ^ m in set(patch.opens) for m in patch.opens)


# ---------------------------------------------------- row representation

def alexandrov_spaces(max_n: int) -> list[FiniteSpace]:
    """Every finite space on at most max_n labelled points, from its rows."""
    return [FiniteSpace.from_rows([f"x{i}" for i in range(n)], rows)
            for n in range(max_n + 1) for rows in all_preorders(n)]


def test_a_space_is_the_preorder_of_its_rows():
    for n in range(5):
        labels = [f"x{i}" for i in range(n)]
        for rows in all_preorders(n):
            pre, sp = Preorder(labels, rows), FiniteSpace.from_rows(labels, rows)
            assert isinstance(sp, Preorder) and sp.up == sp.minimal == pre.up
            assert sp.is_t0() == (pre.antisymmetry_failure() is None)
            assert cover_pairs(rows) == brute_cover_pairs(rows)
            # same rows, different kinds of object
            assert sp != pre and pre != sp


def test_built_families_equal_their_validated_families():
    # opens and clopen_uppers wrap upper_sets' output without SetFamily's
    # checks, so it must already be the family those checks would build
    rng = random.Random(16)
    cases = [rows for n in range(5) for rows in all_preorders(n)]
    cases += [transitive_closure(1 << i | rng.getrandbits(n) & rng.getrandbits(n)
                                 for i in range(n))
              for n in range(5, 9) for _ in range(25)]
    for rows in cases:
        n = len(rows)
        labels = [f"x{i}" for i in range(n)]
        space = FiniteSpace.from_rows(labels, rows)
        assert space.opens == SetFamily(n, upper_sets(rows))
        points = FiniteSpace.from_rows(labels, [1 << i for i in range(n)])
        for ps in (PreorderedSpace(space, Preorder(labels, rows)),
                   PreorderedSpace(points, Preorder(labels, rows))):
            report = priestley_check(ps)
            assert report.clopen_uppers == SetFamily(n, upper_sets(report.rows))


def test_space_from_rows_equals_space_from_its_opens():
    for sp in alexandrov_spaces(4):
        explicit = FiniteSpace(sp.labels, brute_upper_sets(sp.minimal))
        assert sp.minimal == explicit.minimal
        assert sp.opens == explicit.opens
        assert sp == explicit and hash(sp) == hash(explicit)


def _preimages_open(f, src_opens: set, tgt_opens: set, n: int) -> bool:
    return all(sum(1 << p for p in range(n) if o >> f[p] & 1) in src_opens
               for o in tgt_opens)


def test_row_predicates_match_open_set_definitions():
    rng = random.Random(0)
    sps = alexandrov_spaces(4)
    opens = [set(brute_upper_sets(sp.minimal)) for sp in sps]
    for k, sp in enumerate(sps):
        # masks past the carrier are scanned too: none of them is open
        assert [m for m in range(2 << sp.n) if sp.is_open(m)] == sorted(opens[k])
        assert sp.clopen_masks() == sorted(m for m in opens[k] if sp.full ^ m in opens[k])
        # continuity with random partners, as source and as target
        for j in rng.sample(range(len(sps)), 3):
            for a, b in ((k, j), (j, k)):
                maps = list(itertools.product(range(sps[b].n), repeat=sps[a].n))
                for f in rng.sample(maps, min(8, len(maps))):
                    assert (is_continuous(f, sps[a], sps[b])
                            == _preimages_open(f, opens[a], opens[b], sps[a].n))


def test_patch_space_of_separating_family_needs_no_opens(monkeypatch):
    def no_enumeration(up):
        raise AssertionError("opens enumerated")

    monkeypatch.setattr(spaces, "upper_sets", no_enumeration)
    n = 16
    chain_ups = SetFamily(n, [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n)])
    sp = patch_space([f"x{i}" for i in range(n)], chain_ups, bound=16)
    assert sp.minimal == tuple(1 << i for i in range(n))
    assert sp.is_open(0b1010_0110_0001_1000) and sp.is_t0()
    # not built before the first read, and read then in closed form
    assert sp._opens is None
    assert sp.opens.masks == tuple(range(1 << n))


# ------------------------------------------------------------ discrete spaces

def _singletons(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def test_the_powerset_family_is_the_discrete_space():
    for n in range(1, 7):
        labels = [f"x{i}" for i in range(n)]
        want = FiniteSpace.from_rows(labels, _singletons(n))
        assert brute_topology_verdict(n, range(1 << n)) is None
        for opens in (range(1 << n), reversed(range(1 << n)),
                      SetFamily(n, range(1 << n))):
            sp = FiniteSpace(labels, opens)
            assert sp.up == want.up == tuple(_singletons(n))
            assert sp.opens == want.opens == SetFamily(n, range(1 << n))
            assert sp == want and sp.is_t0()


def test_every_family_of_all_subsets_but_one_is_decided_as_before():
    # each is refused by the old checks, by name, except the two-point
    # Sierpinski spaces; none of them is the discrete space
    outcomes = []
    for n in range(1, 5):
        labels = [f"x{i}" for i in range(n)]
        for gone in range(1 << n):
            masks = [m for m in range(1 << n) if m != gone]
            try:
                sp = FiniteSpace(labels, masks)
            except InputFormatError as err:
                assert type(err) is InputFormatError
                got = str(err)
            else:
                got = None
                assert list(sp.opens) == masks and sum(sp.up) != sp.full
            assert got == brute_topology_verdict(n, masks), (n, gone)
            outcomes.append((n, gone, got))
    ends = "a topology contains the empty and full sets"
    assert [(n, gone) for n, gone, got in outcomes if got is None] == [(2, 1), (2, 2)]
    assert {got for n, gone, got in outcomes if gone in (0, (1 << n) - 1)} == {ends}
    assert {got for n, _, got in outcomes if n > 2} == {
        ends, "family is not closed under intersections",
        "family is not closed under unions"}


def _discrete_spaces_over_small_orders():
    """The discrete space under every poset with at most 5 points and every
    preorder on 4 points."""
    orders = [Preorder.from_poset(p) for p in all_posets_up_to(5)]
    preorders = brute_preorders(4)
    assert len(preorders) == 355
    orders += [Preorder([f"x{i}" for i in range(4)], rows) for rows in preorders]
    return [PreorderedSpace(FiniteSpace.from_rows(o.labels, _singletons(o.n)), o)
            for o in orders]


def test_priestley_axioms_on_discrete_spaces_match_the_definitions():
    ok = 0
    for ps in _discrete_spaces_over_small_orders():
        uppers = brute_clopen_uppers(ps)
        cycle = brute_antisymmetry_failure(ps.preorder.up)
        unseparated = next(((x, y) for x in range(ps.n) for y in range(ps.n)
                            if not ps.preorder.leq(x, y)
                            and not any(u >> x & 1 and not u >> y & 1 for u in uppers)),
                           None)
        pair = cycle or unseparated
        report = priestley_check(ps)
        assert (report.is_compact, report.is_partial_order, report.separation_ok,
                report.failing_pair) == (
            True, cycle is None, pair is None,
            pair and (ps.labels[pair[0]], ps.labels[pair[1]]))
        least = tuple(functools.reduce(int.__and__, (u for u in uppers if u >> p & 1))
                      for p in range(ps.n))
        assert report.rows == least
        assert list(report.clopen_uppers) == uppers
        if report.ok:
            ok += 1
            assert (list(weakly_indecomposable_clopen_uppers(ps).masks)
                    == brute_weakly_indecomposable(ps))
        else:
            with pytest.raises(NotPriestley):
                weakly_indecomposable_clopen_uppers(ps)
    assert ok == sum(1 for _ in all_posets_up_to(5)) + 219


def test_clopen_sets_of_a_discrete_space_are_every_subset():
    for n in range(9):
        labels = [f"x{i}" for i in range(n)]
        for sp in (FiniteSpace.from_rows(labels, _singletons(n)),
                   FiniteSpace(labels, range(1 << n))):
            assert sp.clopen_masks() == list(range(1 << n))
