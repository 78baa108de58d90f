"""Corpora of small posets, preorders, and random orders for checks and tests."""

from __future__ import annotations

import random

from ordua.structures import Poset, bits, canonical_form, transitive_closure, upper_sets

_POSET_CACHE: dict[int, list[Poset]] = {}
_PREORDER_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _labelled_down_rows(n: int) -> list[tuple[int, ...]]:
    """Down-set rows of all naturally labelled posets on 0..n-1 (element k is
    maximal when inserted, so every poset appears in at least one labelling)."""
    out = [()]
    for k in range(n):
        nxt = []
        for rows in out:
            # choose a down-closed set of predecessors for the new element
            for m in upper_sets(rows):
                nxt.append(rows + (m | 1 << k,))
        out = nxt
    return out


def all_posets(n: int) -> list[Poset]:
    """All posets with exactly n elements, one per isomorphism class: the
    first labelled poset of each class, in generation order."""
    if n not in _POSET_CACHE:
        labels = [f"x{i}" for i in range(n)]
        seen = {}
        for rows in _labelled_down_rows(n):
            up = [0] * n
            for j, dn in enumerate(rows):
                for i in bits(dn):
                    up[i] |= 1 << j
            p = Poset(labels, up)
            key = canonical_form(p)
            if key not in seen:
                seen[key] = p
        _POSET_CACHE[n] = list(seen.values())
    return _POSET_CACHE[n]


def all_posets_up_to(n: int) -> list[Poset]:
    out = []
    for k in range(1, n + 1):
        out.extend(all_posets(k))
    return out


def all_preorders(n: int) -> list[tuple[int, ...]]:
    """Up-rows of all labelled preorders on n points."""
    if n not in _PREORDER_CACHE:
        found = []
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for combo in range(1 << len(offdiag)):
            rows = [1 << i for i in range(n)]
            for b in bits(combo):
                i, j = offdiag[b]
                rows[i] |= 1 << j
            ok = True
            for i in range(n):
                for j in bits(rows[i]):
                    if rows[j] & ~rows[i]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(tuple(rows))
        _PREORDER_CACHE[n] = found
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
