"""Corpora of small posets, preorders, and random orders for checks and tests."""

from __future__ import annotations

import random

from ordua.structures import (
    Poset,
    _label_index,
    bits,
    canonical_form,
    transitive_closure,
    upper_sets,
)

_POSET_CACHE: dict[int, list[Poset]] = {}
_PREORDER_CACHE: dict[int, list[tuple[int, ...]]] = {}


def all_posets(n: int) -> list[Poset]:
    """All posets with exactly n elements, one per isomorphism class: the
    first naturally labelled poset of each class (point k maximal on 0..k),
    labellings listed by their prefix on 0..n-2, then by the down-set of
    n-1 in ascending mask order. A prefix isomorphic by s to an earlier one
    Q extends by D to a copy of Q extended by s(D), which comes earlier; so
    only the representatives on n-1 points are extended."""
    if n not in _POSET_CACHE:
        labels = tuple(f"x{i}" for i in range(n))
        index = _label_index(labels)  # shared by every poset of this size
        prefixes = [(p.up, p.dn) for p in all_posets(n - 1)] if n > 1 else [((), ())]
        seen = {}
        for up, dn in prefixes:
            point = 1 << len(up)
            for d in upper_sets(dn):  # the down-sets of the prefix
                ext = tuple(r | point if d >> i & 1 else r for i, r in enumerate(up))
                p = Poset._of_order(labels, ext + (point,), dn + (d | point,), index)
                seen.setdefault(canonical_form(p), p)
        _POSET_CACHE[n] = list(seen.values())
    return _POSET_CACHE[n]


def all_posets_up_to(n: int) -> list[Poset]:
    out = []
    for k in range(1, n + 1):
        out.extend(all_posets(k))
    return out


def all_preorders(n: int) -> list[tuple[int, ...]]:
    """Up-rows of all labelled preorders on n points, ordered by their rows
    read from the last point to the first. Point k extends a preorder on
    0..k-1 by a down-set D (the complement of an up-set) below it and an
    up-set U above it; that is transitive iff D is already below all of U."""
    if n not in _PREORDER_CACHE:
        found = [()]
        for k in range(n):
            point, nxt = 1 << k, []
            for rows in found:
                ups = upper_sets(rows)
                for d in ((point - 1) ^ u for u in ups):
                    common = point - 1
                    for i in bits(d):
                        common &= rows[i]
                    ext = tuple(r | point if d >> i & 1 else r
                                for i, r in enumerate(rows))
                    nxt.extend([ext + (point | u,) for u in ups if not u & ~common])
            found = nxt
        _PREORDER_CACHE[n] = sorted(found, key=lambda r: r[::-1])
    return _PREORDER_CACHE[n]


def random_poset(rng: random.Random, n: int, density: float = 0.35) -> Poset:
    """A random poset: a DAG on 0..n-1 (edges point up in index order),
    transitively closed. Always antisymmetric by construction."""
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= 1 << j
    return Poset([f"x{i}" for i in range(n)], transitive_closure(up))
