"""The lattice-of-sets builder: lazy labels and rows, the AND-table fold,
and the label-collision rule, against pairwise references."""

import itertools
import random

import pytest

from conftest import (
    brute_closed_family,
    brute_preorders,
    lower_set_lattice,
    random_set_family,
)
from ordua import setlattices
from ordua.corpus import all_posets_up_to, random_poset
from ordua.errors import DuplicateLabel
from ordua.setlattices import (
    _and_fold,
    _labels_may_collide,
    _lattice_of_upsets,
    structure_from_closed_masks,
)
from ordua.structures import upper_sets


def brute_set_lattice(point_labels, masks) -> dict:
    """What the lattice of a closed family must be, straight off the
    definitions: labels listing each set's points, inclusion rows from the
    pairwise reference, the empty and full sets as bottom and top, and
    Boolean iff every complement is a member."""
    masks = sorted(masks)
    n, npts, full = len(masks), len(point_labels), masks[-1]
    up = brute_closed_family(npts, masks)
    comp = [masks.index(full ^ m) if full ^ m in masks else None for m in masks]
    boolean = None not in comp
    return {
        "labels": tuple("{" + ",".join(point_labels[i] for i in range(npts) if m >> i & 1)
                        + "}" for m in masks),
        "up": tuple(up),
        "dn": tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)),
        "kind": "boolean-algebra" if boolean else "distributive-lattice",
        "top": masks.index(full),
        "bottom": masks.index(0),
        "complement": tuple(comp) if boolean else None,
    }


def built(s) -> dict:
    return {"labels": s.labels, "up": s.base.up, "dn": s.base.dn, "kind": s.kind,
            "top": s.top, "bottom": s.bottom, "complement": s.complement}


def _families():
    for block in range(10):  # the random families of the pairwise test
        rng = random.Random(100 + block)
        for _ in range(30):
            labels, masks = random_set_family(rng)
            if not isinstance(brute_closed_family(len(labels), masks), str):
                yield labels, masks
    for k in range(7):  # the powersets
        yield [f"p{i}" for i in range(k)], list(range(1 << k))
    for p in all_posets_up_to(4):  # the lower-set lattices
        yield list(p.labels), p.lower_set_masks()
    for n in range(5):  # the up-sets of every preorder on at most 4 points
        for up in brute_preorders(n):
            yield [f"q{i}" for i in range(n)], upper_sets(up)


def test_lattice_of_upsets_matches_the_pairwise_reference():
    count = 0
    for labels, masks in _families():
        want = brute_set_lattice(labels, masks)
        assert built(_lattice_of_upsets(labels, masks)) == want, (labels, masks)
        assert built(structure_from_closed_masks(labels, masks)) == want
        count += 1
    assert count > 500


def test_lattice_of_upsets_builds_labels_and_rows_on_first_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("built labels or rows")

    monkeypatch.setattr(setlattices, "_set_label", refuse)
    monkeypatch.setattr(setlattices, "_family_rows", refuse)
    p = random_poset(random.Random(11), 9, 0.2)
    for s in (_lattice_of_upsets(p.labels, p.lower_set_masks()),
              structure_from_closed_masks(p.labels, p.lower_set_masks())):
        assert s.n == len(p.lower_set_masks()) and s.kind == "distributive-lattice"
        assert (s.top, s.bottom, s.complement) == (s.n - 1, 0, None)
    monkeypatch.undo()
    want = brute_set_lattice(p.labels, p.lower_set_masks())
    assert built(s) == want
    assert s.base.index(want["labels"][3]) == 3


@pytest.mark.parametrize("count", [0, 1, 8, 9, 16])
def test_and_fold_matches_a_plain_fold(count):
    rng = random.Random(count)
    every = (1 << 40) - 1
    values = [rng.getrandbits(40) for _ in range(count)]
    fold = _and_fold(values, every)
    masks = ([0, (1 << count) - 1] + [rng.getrandbits(count) for _ in range(200)]
             if count else [0])
    for mask in masks:
        plain = every
        for k in range(count):
            if mask >> k & 1:
                plain &= values[k]
        assert fold(mask) == plain


def test_label_collisions_are_all_foreseen():
    """Whenever two sets of points get the same label, the collision rule
    says they may; labels are drawn from short strings of a, b and commas."""
    words = [""] + ["".join(w) for k in (1, 2, 3) for w in itertools.product("ab,", repeat=k)]
    rng = random.Random(5)
    foreseen = 0
    for _ in range(3000):
        labels = rng.sample(words, rng.randint(1, 4))
        names = [",".join(labels[i] for i in range(len(labels)) if m >> i & 1)
                 for m in range(1 << len(labels))]
        collide = len(set(names)) < len(names)
        assert not collide or _labels_may_collide(labels), labels
        foreseen += collide
    assert foreseen > 100


def test_colliding_labels_raise_as_the_eager_builder_did():
    with pytest.raises(DuplicateLabel, match=r"\['\{a,b\}'\]"):
        _lattice_of_upsets(["a", "b", "a,b"], range(8))
    with pytest.raises(DuplicateLabel, match=r"\['\{\}'\]"):
        structure_from_closed_masks(["", "a"], range(4))
    # labels with commas that cannot collide stay lazy
    s = lower_set_lattice(random_poset(random.Random(2), 6, 0.4))
    assert _labels_may_collide([f"^{x}" for x in s.labels]) is False
