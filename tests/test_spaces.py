import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordua.corpus import all_preorders, all_posets_up_to
from ordua.errors import CarrierTooLarge, InputFormatError, NotPriestley, NotT0
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    alexandrov_space,
    check_frame_pullback,
    check_patch_characterization,
    generate_topology,
    patch_space,
    preorder_coreflection,
    priestley_boolean_algebra,
    priestley_check,
    specialization_preorder,
    upper_open_reduct,
    weakly_indecomposable_clopen_uppers,
)
from ordua.structures import SetFamily, validate_poset


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


# ----------------------------------------------------------- frame pullback

def test_frame_pullback_examples():
    assert check_frame_pullback(sierpinski())
    assert check_frame_pullback(discrete(3))
    assert check_frame_pullback(alexandrov_space(chain_preorder(3)))


def test_frame_pullback_requires_t0():
    with pytest.raises(NotT0):
        check_frame_pullback(indiscrete(2))


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
