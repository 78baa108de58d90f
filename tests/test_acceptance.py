"""End-to-end acceptance gate: one test per numbered claim, all exact.

The corpora are the ones the claims name: 200 seeded random posets of size
<= 6 (and their lower-set lattices), the exhaustive isomorphism-class lists
up to size 4 or 5, and the exhaustive labelled topologies on <= 4 points.
"""

import itertools
import subprocess
import sys

import pytest

from ordua.corpus import all_posets_up_to, all_preorders, random_poset
from ordua.dualities import (
    ddlat_spectrum,
    dual_morphism,
    msl_spectrum,
    poset_spectrum,
    priestley_of_dlat,
    roundtrip_check,
    stone_spectrum,
)
from ordua.errors import NotT0
from ordua.free import (
    free_boolean,
    free_dlat_on_ddlat,
    free_dlat_on_msl,
    free_frame_on_poset,
    frame_supercompacts,
    induced_boolean_hom,
    recognize_free_boolean,
    thm22_oracle,
    universal_property_check,
)
from ordua.setlattices import powerset_structure
from ordua.spaces import (
    Preorder,
    PreorderedSpace,
    alexandrov_space,
    check_frame_pullback,
    is_continuous,
    is_monotone_map,
    preorder_coreflection,
    priestley_check,
    specialization_preorder,
    upper_open_reduct,
    weakly_indecomposable_clopen_uppers,
)
from ordua.structures import (
    KIND_RANK,
    Poset,
    StructureMorphism,
    classify,
    compose,
    disjunctively_compact_elements,
    enumerate_homomorphisms,
    indecomposable_elements,
    order_isomorphism,
    validate_poset,
)
from conftest import lower_set_lattice, package_env

import random


SEED = 20240 + 611


@pytest.fixture(scope="module")
def random_posets():
    rng = random.Random(SEED)
    return [random_poset(rng, rng.randint(1, 6)) for _ in range(200)]


@pytest.fixture(scope="module")
def random_dlats(random_posets):
    return [lower_set_lattice(p) for p in random_posets]


def structures_up_to(size: int, least_kind: str):
    rank = KIND_RANK[least_kind]
    return [classify(p) for p in all_posets_up_to(size)
            if KIND_RANK[classify(p).kind] >= rank]


def chain(n: int):
    labels = [str(i) for i in range(n)]
    return classify(validate_poset(labels,
                                   [(str(i), str(i + 1)) for i in range(n - 1)]))


def diamond():
    return classify(validate_poset(["0", "a", "b", "1"],
                                   [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]))


def embeds_orderly(c, unit, target) -> bool:
    return all(c.leq(i, j) == target.leq(unit[i], unit[j])
               for i in range(c.n) for j in range(c.n))


def test_01_priestley_roundtrip_on_random_lattices(random_dlats):
    assert len(random_dlats) == 200
    for d in random_dlats:
        ok, result, iso = roundtrip_check(d)
        assert ok and iso is not None
        assert all(d.leq(i, j) == result.leq(iso[i], iso[j])
                   for i in range(d.n) for j in range(d.n))


def test_02_spectra_are_discrete_priestley_spaces(random_posets, random_dlats):
    produced = [priestley_of_dlat(d).space for d in random_dlats]
    produced += [poset_spectrum(p).space for p in random_posets]
    produced += [msl_spectrum(m).space for m in structures_up_to(5, "meet-semilattice")]
    produced += [ddlat_spectrum(d).space for d in structures_up_to(5, "dd-lattice")]
    for ps in produced:
        assert priestley_check(ps).ok
        assert len(ps.space.opens) == 1 << ps.n  # finite Priestley = discrete


def test_03_frame_pullback(random_dlats):
    t0_seen = 0
    for n in range(1, 5):
        labels = [f"x{i}" for i in range(n)]
        for rows in all_preorders(n):
            pre = Preorder(labels, rows)
            space = alexandrov_space(pre)
            if pre.is_antisymmetric():
                t0_seen += 1
                assert check_frame_pullback(space)
            else:
                with pytest.raises(NotT0):
                    check_frame_pullback(space)
    assert t0_seen == 1 + 3 + 19 + 219  # labelled T0 topologies on 1..4 points
    for d in random_dlats:
        assert check_frame_pullback(stone_spectrum(d))


def test_04_oracle_matches_free_boolean():
    cases = [(chain(1), 3), (chain(2), 3), (chain(3), 3), (diamond(), 4)]
    for d, bound in cases:
        orc = thm22_oracle(d, bound=bound)
        fb = free_boolean(d, "dlat")
        assert orc.structure.n == fb.size
        iso = order_isomorphism(orc.structure.base, fb.structure.base,
                                pins=dict(zip(orc.unit, fb.unit)))
        assert iso is not None


def test_05_universal_property():
    corpora = {
        "poset-monotone": [classify(p) for p in all_posets_up_to(4)],
        "poset-flat": [classify(p) for p in all_posets_up_to(4)],
        "msl": structures_up_to(4, "meet-semilattice"),
        "dlat": structures_up_to(4, "distributive-lattice"),
    }
    for kind, structures in corpora.items():
        for c in structures:
            ok, witness = universal_property_check(free_boolean(c, kind))
            assert ok, (kind, c.labels, witness)
    # cross-check: restricting Boolean homs out of the free algebra along
    # the unit is a bijection onto the morphisms out of the source
    c3 = chain(3)
    b = powerset_structure(2)
    fr = free_boolean(c3, "dlat")
    lattice_maps = sorted(f.map for f in
                          enumerate_homomorphisms(c3, b, "lattice-hom"))
    restrictions = sorted(tuple(h.map[fr.unit[i]] for i in range(c3.n))
                          for h in
                          enumerate_homomorphisms(fr.structure, b, "boolean-hom"))
    assert restrictions == lattice_maps
    assert len(set(restrictions)) == len(restrictions)


def test_06_recovery_theorems(random_posets):
    # (a) the poset is recovered from its spectrum's weakly indecomposable
    # clopen uppers, ordered by inclusion
    for p in random_posets:
        wi = sorted(weakly_indecomposable_clopen_uppers(poset_spectrum(p).space).masks)
        rows = [0] * len(wi)
        for i, mi in enumerate(wi):
            for j, mj in enumerate(wi):
                if not mi & ~mj:
                    rows[i] |= 1 << j
        recovered = Poset([f"w{i}" for i in range(len(wi))], rows)
        assert order_isomorphism(p, recovered) is not None
    # (b) a meet-semilattice is recovered from its free lattice as the
    # indecomposable elements
    for m in structures_up_to(5, "meet-semilattice"):
        fr = free_dlat_on_msl(m)
        assert sorted(indecomposable_elements(fr.structure).members()) \
            == sorted(fr.unit)
        assert embeds_orderly(m, fr.unit, fr.structure)
    # (c) a poset is recovered from its free frame as the supercompacts
    for p in random_posets:
        fr = free_frame_on_poset(p)
        assert sorted(frame_supercompacts(fr)) == sorted(fr.unit)
        assert embeds_orderly(fr.source, fr.unit, fr.structure)
    # (d) a dd-lattice is recovered from its free lattice as the
    # disjunctively compact elements
    for d in structures_up_to(5, "dd-lattice"):
        fr = free_dlat_on_ddlat(d)
        assert sorted(disjunctively_compact_elements(fr.structure).members()) \
            == sorted(fr.unit)
        assert embeds_orderly(d, fr.unit, fr.structure)


def test_07_recognition_soundness():
    hom_of = {"msl": "meet-hom", "dlat": "lattice-hom", "ddlat": "disjunctive-hom"}
    least = {"msl": "meet-semilattice", "dlat": "distributive-lattice",
             "ddlat": "dd-lattice"}
    for kind, hom_kind in hom_of.items():
        for c in structures_up_to(4, least[kind]):
            fr = free_boolean(c, kind)
            ok, witness = recognize_free_boolean(fr.unit_morphism(hom_kind), kind)
            assert ok, (kind, c.labels, witness)
    # a Boolean algebra included into itself as a meet-semilattice is not
    # the free Boolean algebra on itself
    for k in (2, 3):
        b = powerset_structure(k)
        ident = StructureMorphism(b.with_kind("meet-semilattice"), b,
                                  tuple(range(b.n)), "meet-hom")
        ok, _ = recognize_free_boolean(ident, "msl")
        assert not ok


def test_08_adjunction_suites():
    sizes = (1, 2, 3)
    labels = {n: [f"x{i}" for i in range(n)] for n in sizes}
    pres = {n: all_preorders(n) for n in sizes}
    spaces = {n: [alexandrov_space(Preorder(labels[n], rows)) for rows in pres[n]]
              for n in sizes}
    index = {n: {rows: k for k, rows in enumerate(pres[n])} for n in sizes}
    maps = {(n, m): list(itertools.product(range(m), repeat=n))
            for n in sizes for m in sizes}

    # hom-set bitmask tables over the full map space; continuity between the
    # corresponding finite (= Alexandrov) spaces must agree with monotonicity
    mono = {}
    for n in sizes:
        for m in sizes:
            for i, ri in enumerate(pres[n]):
                pi = Preorder(labels[n], ri)
                for j, rj in enumerate(pres[m]):
                    pj = Preorder(labels[m], rj)
                    mask = 0
                    for k, f in enumerate(maps[n, m]):
                        if is_monotone_map(f, pi, pj):
                            mask |= 1 << k
                    cont = 0
                    for k, f in enumerate(maps[n, m]):
                        if is_continuous(f, spaces[n][i], spaces[m][j]):
                            cont |= 1 << k
                    assert cont == mask
                    mono[n, i, m, j] = mask

    for n in sizes:
        # the order-forgetting inclusion is a retract of the upper-open reduct
        for i, space in enumerate(spaces[n]):
            back = upper_open_reduct(
                PreorderedSpace(space, specialization_preorder(space)))
            assert sorted(back.opens) == sorted(space.opens)
        # the topology-forgetting coreflection retracts the Alexandrov functor
        for rows in pres[n]:
            pre = Preorder(labels[n], rows)
            ps = PreorderedSpace(alexandrov_space(pre), pre)
            assert preorder_coreflection(ps).up == pre.up

    reduct_of = {}
    corefl_of = {}
    for n in sizes:
        for i in range(len(pres[n])):
            for l in range(len(pres[n])):
                ps = PreorderedSpace(spaces[n][i], Preorder(labels[n], pres[n][l]))
                reduct_of[n, i, l] = index[n][specialization_preorder(
                    upper_open_reduct(ps)).up]
                corefl_of[n, i, l] = index[n][preorder_coreflection(ps).up]
    for n in sizes:
        for m in sizes:
            for i in range(len(pres[n])):        # topology of the source
                for l in range(len(pres[n])):    # order of the source
                    for j in range(len(pres[m])):
                        # continuous maps out of the reduct = maps that are
                        # both continuous and monotone into specialization
                        lhs = mono[n, reduct_of[n, i, l], m, j]
                        rhs = mono[n, i, m, j] & mono[n, l, m, j]
                        assert lhs == rhs
            for q in range(len(pres[n])):        # a bare preorder
                for j in range(len(pres[m])):    # topology of the target
                    for l in range(len(pres[m])):  # order of the target
                        # continuous+monotone maps out of the Alexandrov
                        # space = monotone maps into the coreflection
                        lhs = mono[n, q, m, j] & mono[n, q, m, l]
                        rhs = mono[n, q, m, corefl_of[m, j, l]]
                        assert lhs == rhs


def test_09_functoriality():
    corpora = {
        "poset": ("flat", "poset-flat",
                  [classify(p) for p in all_posets_up_to(4)]),
        "msl": ("meet-hom", "msl", structures_up_to(4, "meet-semilattice")),
        "dlat": ("lattice-hom", "dlat",
                 structures_up_to(4, "distributive-lattice")),
        "ddlat": ("disjunctive-hom", "ddlat", structures_up_to(4, "dd-lattice")),
    }
    for duality, (hom_kind, free_kind, structures) in corpora.items():
        frees = [free_boolean(c, free_kind) for c in structures]
        homs = {}
        duals = {}
        induced = {}
        for a, ca in enumerate(structures):
            for b, cb in enumerate(structures):
                hs = enumerate_homomorphisms(ca, cb, hom_kind)
                homs[a, b] = hs
                for f in hs:
                    duals[a, b, f.map] = dual_morphism(f, duality)
                    induced[a, b, f.map] = induced_boolean_hom(
                        f, frees[a], frees[b])
        # identities
        for a, ca in enumerate(structures):
            ident = tuple(range(ca.n))
            assert ident in {f.map for f in homs[a, a]}
            dm = duals[a, a, ident]
            assert dm.map == tuple(range(dm.source.n))
            assert induced[a, a, ident] == tuple(range(len(induced[a, a, ident])))
        # composition: contravariant for spectra, covariant for frees
        for a in range(len(structures)):
            for b in range(len(structures)):
                for c in range(len(structures)):
                    for f in homs[a, b]:
                        for g in homs[b, c]:
                            gf = compose(g, f)
                            dgf = duals[a, c, gf.map]
                            df, dg = duals[a, b, f.map], duals[b, c, g.map]
                            assert dgf.map == tuple(df.map[dg.map[k]]
                                                    for k in range(len(dgf.map)))
                            tgf = induced[a, c, gf.map]
                            tf = induced[a, b, f.map]
                            tg = induced[b, c, g.map]
                            assert tgf == tuple(tg[tf[s]] for s in range(len(tf)))


def test_10_selftest_determinism():
    runs = [subprocess.run(
        [sys.executable, "-m", "ordua", "selftest", "--seed", "7"],
        capture_output=True, env=package_env()) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # nonempty report
