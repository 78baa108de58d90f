"""Independent references for the benchmark's output checks.

Everything here works from raw order rows (``up[i]`` = bitmask of elements
above ``i``) and the definitions, never from the library's closed forms, so a
library shortcut that goes wrong shows up as a failed check.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def transpose(up) -> tuple[int, ...]:
    n = len(up)
    dn = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            dn[j] |= 1 << i
    return tuple(dn)


def antichain_count(up) -> int:
    """Number of antichains, which equals the number of down-sets (and of up-sets)."""
    n = len(up)
    dn = transpose(up)
    comparable = [up[i] | dn[i] for i in range(n)]

    @lru_cache(maxsize=None)
    def count(cand: int) -> int:
        if not cand:
            return 1
        low = cand & -cand
        i = low.bit_length() - 1
        return count(cand ^ low) + count(cand & ~comparable[i])

    return count((1 << n) - 1)


def down_sets(up) -> list[int]:
    """All down-sets of the order, grown from the empty set by adding minimal
    elements of the complement."""
    dn = transpose(up)
    seen = {0}
    frontier = [0]
    full = (1 << len(up)) - 1
    while frontier:
        nxt = []
        for d in frontier:
            for x in bits(full & ~d):
                if dn[x] & ~(d | 1 << x) == 0:
                    e = d | 1 << x
                    if e not in seen:
                        seen.add(e)
                        nxt.append(e)
        frontier = nxt
    return sorted(seen)


def up_set_count(rows) -> int:
    """Up-sets of a preorder given by up rows, by scanning every subset."""
    n = len(rows)
    return sum(1 for m in range(1 << n)
               if all(rows[i] & ~m == 0 for i in range(n) if m >> i & 1))


def free_dlat_size_on_msl(up) -> int:
    """Size of the 0,1-sublattice of the powerset of the carrier generated by
    the principal down-sets: the free distributive lattice on a finite
    meet-semilattice presented on its (principal) filters."""
    full = (1 << len(up)) - 1
    members = set(transpose(up)) | {0, full}
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(members):
                for z in (x | y, x & y):
                    if z not in members:
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    return len(members)


def _leq(up, a: int, b: int) -> bool:
    return bool(up[a] >> b & 1)


def _least(up, cands: list[int]) -> int | None:
    for c in cands:
        if all(_leq(up, c, d) for d in cands):
            return c
    return None


def _greatest(up, cands: list[int]) -> int | None:
    for c in cands:
        if all(_leq(up, d, c) for d in cands):
            return c
    return None


def _tables(up):
    n = len(up)
    meet, join = {}, {}
    for a in range(n):
        for b in range(n):
            lows = [x for x in range(n) if _leq(up, x, a) and _leq(up, x, b)]
            highs = [x for x in range(n) if _leq(up, a, x) and _leq(up, b, x)]
            meet[a, b] = _greatest(up, lows)
            join[a, b] = _least(up, highs)
    return meet, join


def is_lattice(up) -> bool:
    """A finite poset is a lattice iff it has a bottom and all binary joins."""
    n = len(up)
    _meet, join = _tables(up)
    has_bottom = any(up[x] == (1 << n) - 1 for x in range(n))
    return has_bottom and all(v is not None for v in join.values())


def brute_kind(up) -> str:
    """The strongest kind of a small poset, straight from the definitions."""
    n = len(up)
    rng = range(n)
    meet, join = _tables(up)
    top = _greatest(up, list(rng))
    bottom = _least(up, list(rng))
    if top is None or any(v is None for v in meet.values()):
        return "poset"
    lattice = bottom is not None and all(v is not None for v in join.values())
    if lattice and all(meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
                       for a in rng for b in rng for c in rng):
        complemented = all(any(meet[a, c] == bottom and join[a, c] == top for c in rng)
                           for a in rng)
        return "boolean-algebra" if complemented else "distributive-lattice"
    if bottom is not None and brute_is_dd(up, meet, join, bottom):
        return "dd-lattice"
    return "meet-semilattice"


def brute_is_dd(up, meet, join, bottom) -> bool:
    rng = range(len(up))
    for a in rng:
        for b in rng:
            if meet[a, b] != bottom:
                continue
            if join[a, b] is None:
                return False
            if any(meet[c, join[a, b]] != join[meet[c, a], meet[c, b]] for c in rng):
                return False
    return True


def brute_disjunctive_filters(up) -> set[int]:
    """Filters F (nonempty, up-closed, down-directed) such that every family of
    pairwise-disjoint elements whose join lies in F has a member in F; the
    empty family joins to the bottom. Scans every subset twice over."""
    n = len(up)
    dn = transpose(up)
    meet, join = _tables(up)
    bottom = _least(up, list(range(n)))
    filters = []
    for m in range(1, 1 << n):
        members = list(bits(m))
        if any(up[i] & ~m for i in members):
            continue
        if all(dn[a] & dn[b] & m for a in members for b in members):
            filters.append(m)
    families = []
    for fam in range(1 << n):
        members = list(bits(fam))
        if any(meet[a, b] != bottom for a, b in itertools.combinations(members, 2)):
            continue
        j = bottom
        for a in members:
            j = join[j, a]
            if j is None:
                break
        if j is not None:
            families.append((fam, j))
    return {f for f in filters
            if all(not (f >> j & 1) or fam & f for fam, j in families)}
