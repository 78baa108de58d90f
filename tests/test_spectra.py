"""The table of model classes: its rows, the kinds derived from it, the
errors for kinds outside it, and how its readers reach the point builders."""

import pytest

from ordua import dualities, free, structures
from ordua.cli import _BUILTIN_SPECS, builtin_structure
from ordua.errors import InputFormatError, KindMismatch
from ordua.spectra import FREE_KINDS, MODEL_CLASSES, spectrum
from ordua.structures import KIND_RANK, KINDS, StructureMorphism


def test_the_table_rows():
    assert {kind: (mc.needs, mc.hom_kind, mc.principal)
            for kind, mc in MODEL_CLASSES.items()} == {
        "poset-monotone": ("poset", "monotone", False),
        "poset-flat": ("poset", "flat", True),
        "msl": ("meet-semilattice", "meet-hom", True),
        "dlat": ("distributive-lattice", "lattice-hom", True),
        "ddlat": ("dd-lattice", "disjunctive-hom", True),
    }


def test_the_kinds_derived_from_the_table_keep_their_values_and_order():
    assert FREE_KINDS == free.FREE_KINDS == (
        "poset-monotone", "poset-flat", "msl", "dlat", "ddlat")
    assert dualities.DUALITY_KINDS == ("poset", "msl", "dlat", "ddlat")
    assert [dualities.duality_class(d) for d in dualities.DUALITY_KINDS] == [
        "poset-flat", "msl", "dlat", "ddlat"]


# the message a class's points give on a structure below the kind it needs
BELOW_NEEDS = {"msl": "msl spectrum", "dlat": "prime_filters",
               "ddlat": "disjunctive_filters"}


def test_a_spectrum_needs_the_least_kind_of_its_class():
    # every built-in at every kind up to its own: the points are built
    # exactly when the kind is at least the class's, else KindMismatch
    for name in _BUILTIN_SPECS:
        s = builtin_structure(name)
        for kind in KINDS[:s.rank() + 1]:
            t = s.with_kind(kind)
            for fk, mc in MODEL_CLASSES.items():
                if KIND_RANK[kind] >= KIND_RANK[mc.needs]:
                    spectrum(t, fk)  # raises nothing
                    continue
                with pytest.raises(KindMismatch) as info:
                    spectrum(t, fk)
                assert str(info.value) == (
                    f"{BELOW_NEEDS[fk]} needs kind >= {mc.needs}, structure is {kind}")


def test_kinds_outside_the_table_raise_as_before():
    c3 = builtin_structure("C3")
    ident = StructureMorphism(c3, c3, range(c3.n), "lattice-hom")
    on_msl = free.free_dlat_on_msl(c3.with_kind("meet-semilattice"))
    cases = [
        (lambda: spectrum(c3, "bogus"), InputFormatError, "unknown free kind 'bogus'"),
        (lambda: spectrum(c3, "poset"), InputFormatError, "unknown free kind 'poset'"),
        (lambda: free.free_boolean(c3, "ddlat-on-x"), InputFormatError,
         "unknown free kind 'ddlat-on-x'"),
        (lambda: free._class_test(c3, c3, "poset"), InputFormatError,
         "unknown free kind 'poset'"),
        (lambda: free.is_class_morphism((0, 1, 2), c3, c3, "lattice-hom"),
         InputFormatError, "unknown free kind 'lattice-hom'"),
        (lambda: free.universal_property_check(on_msl), InputFormatError,
         "unknown free kind 'dlat-on-msl'"),
        (lambda: dualities.spectrum_for(c3, "poset-flat"), InputFormatError,
         "unknown duality kind 'poset-flat'"),
        (lambda: dualities.dual_morphism(ident, "bogus"), InputFormatError,
         "unknown duality kind 'bogus'"),
        (lambda: dualities.duality_class("poset-monotone"), InputFormatError,
         "unknown duality kind 'poset-monotone'"),
        (lambda: free.recognize_free_boolean(ident, "poset-flat"), KindMismatch,
         "recognition supports msl/dlat/ddlat, not 'poset-flat'"),
        (lambda: free.recognize_free_boolean(ident, "poset"), KindMismatch,
         "recognition supports msl/dlat/ddlat, not 'poset'"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_the_poset_spectrum_of_a_structure_does_not_classify_again(monkeypatch):
    def refuse(*args):
        raise AssertionError("classified a structure again")

    for name in _BUILTIN_SPECS:
        s = builtin_structure(name)
        want = dualities.poset_spectrum(s.base)
        monkeypatch.setattr(dualities, "classify", refuse)
        got = dualities.spectrum_for(s, "poset")
        monkeypatch.undo()
        assert got.spectrum.points.masks == want.spectrum.points.masks
        assert got.spectrum.labels == want.spectrum.labels
        assert got.space.preorder.up == want.space.preorder.up


def test_the_points_are_built_by_the_structures_functions_of_the_moment(monkeypatch):
    # the table names structures' point builders, not copies of them, so a
    # wrapper installed after import sees every call
    seen = []
    for name in ("filters", "prime_filters", "disjunctive_filters"):
        real = getattr(structures, name)
        monkeypatch.setattr(structures, name,
                            lambda *a, real=real, name=name: seen.append(name) or real(*a))
    d4 = builtin_structure("D4")
    for kind in FREE_KINDS:
        spectrum(d4, kind)
    assert seen == ["filters", "filters", "prime_filters", "disjunctive_filters"]
