"""Shared corpora and naive reference implementations.

The predicates here are deliberate brute force straight off the definitions
(loops over all subsets) so the bit-twiddling library code is checked
against something independent of it. ``package_env`` lets subprocess tests
run the package under test whether or not it is installed.
"""

from __future__ import annotations

import functools
import itertools
import os
from pathlib import Path

import ordua
from ordua.corpus import random_poset
from ordua.errors import AntisymmetryViolation, KindMismatch, UnknownLabel
from ordua.setlattices import powerset_structure, structure_from_closed_masks
from ordua.structures import (
    MORPHISM_KINDS,
    Poset,
    Structure,
    StructureMorphism,
    _require_hom_kind,
    bits,
    is_flat_map,
    transitive_closure,
)


def brute_filters(s: Structure) -> list[int]:
    """Nonempty, upward-closed, downward-directed subsets, by definition.

    Every subset m is visited. Its upward closure is that of m without its
    lowest element, joined with that element's up row; m is upper iff it
    equals its closure. Upper sets then get the pairwise test: any x, y in m
    have a common lower bound in m.
    """
    up = [sum(1 << y for y in range(s.n) if s.leq(x, y)) for x in range(s.n)]
    down = [sum(1 << y for y in range(s.n) if s.leq(y, x)) for x in range(s.n)]
    closure = [0] * (1 << s.n)
    out = []
    for m in range(1, 1 << s.n):
        low = m & -m
        closure[m] = closure[m ^ low] | up[low.bit_length() - 1]
        if closure[m] == m and all(down[x] & down[y] & m
                                   for x in bits(m) for y in bits(m)):
            out.append(m)
    return out


def brute_upper_sets(up) -> list[int]:
    """Subsets m with: i in m and i <= j imply j in m, by scanning all 2^n."""
    n = len(up)
    return [m for m in range(1 << n)
            if all(m >> j & 1 for i in range(n) if m >> i & 1
                   for j in range(n) if up[i] >> j & 1)]


def labelled_down_rows(n: int) -> list[tuple[int, ...]]:
    """Down-set rows of every naturally labelled poset on 0..n-1 (point k is
    maximal on 0..k, so every poset has such a labelling), listed by their
    rows on 0..n-2, then by the down-set of n-1 in ascending mask order."""
    out = [()]
    for k in range(n):
        # the down-sets of the prefix are the up-sets of its transpose
        out = [rows + (m | 1 << k,) for rows in out for m in brute_upper_sets(rows)]
    return out


def brute_cover_pairs(up) -> list[tuple[int, int]]:
    """Pairs (i, j), i != j, with i <= j and no k other than i and j such
    that i <= k <= j, in the preorder with up-rows up, by definition."""
    n = len(up)

    def leq(a, b):
        return bool(up[a] >> b & 1)

    return [(i, j) for i in range(n) for j in range(n) if i != j and leq(i, j)
            and not any(leq(i, k) and leq(k, j) for k in range(n) if k not in (i, j))]


def brute_preorders(n: int) -> list[tuple[int, ...]]:
    """Up-rows of every reflexive, transitive relation on n points, in the
    order of a scan over all 2^(n(n-1)) off-diagonal relations."""
    found = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for b in bits(combo):
            i, j = offdiag[b]
            rows[i] |= 1 << j
        if all(not rows[j] & ~rows[i] for i in range(n) for j in bits(rows[i])):
            found.append(tuple(rows))
    return found


def brute_satisfies_kind(m, src: Structure, tgt: Structure, kind: str) -> bool:
    """Whether the map tuple m is monotone and keeps what kind asks for, law
    by law over every pair of source elements: the top and meets (every hom
    kind), the bottom and joins (lattice and Boolean homs), complements
    (Boolean homs), the bottom and joins of disjoint pairs (disjunctive
    homs); a flat map is judged by is_flat_map."""
    n = src.n
    if any(src.leq(i, j) and not tgt.leq(m[i], m[j])
           for i in range(n) for j in range(n)):
        return False
    if kind == "monotone":
        return True
    if kind == "flat":
        return is_flat_map(StructureMorphism(src, tgt, m, "flat"))[0]
    (smeet, sjoin), (tmeet, tjoin) = brute_tables(src), brute_tables(tgt)
    pairs = list(itertools.combinations(range(n), 2))
    if m[src.top] != tgt.top or any(
            m[smeet[a, b]] != tmeet[m[a], m[b]] for a, b in pairs):
        return False
    if kind == "meet-hom":
        return True
    if m[src.bottom] != tgt.bottom:
        return False
    if kind == "disjunctive-hom":
        return all(tjoin[m[a], m[b]] == m[sjoin[a, b]] for a, b in pairs
                   if smeet[a, b] == src.bottom and sjoin[a, b] is not None)
    if any(m[sjoin[a, b]] != tjoin[m[a], m[b]] for a, b in pairs):
        return False
    return kind == "lattice-hom" or all(
        m[src.complement[a]] == tgt.complement[m[a]] for a in range(n))


def brute_flat_model(m, src: Structure, b: Structure) -> bool:
    """Whether the map tuple m is a flat model: monotone, its images cover the
    top, and the meet of the images of any two elements is the join of the
    images of their common lower bounds."""
    n = src.n
    if not brute_satisfies_kind(m, src, b, "monotone") or brute_join_of(b, m) != b.top:
        return False
    meet = brute_tables(b)[0]
    return all(
        meet[m[x], m[y]] == brute_join_of(
            b, [m[z] for z in range(n) if src.leq(z, x) and src.leq(z, y)])
        for x in range(n) for y in range(x, n))


BRUTE_HOM_KIND = {"poset-monotone": "monotone", "msl": "meet-hom",
                  "dlat": "lattice-hom", "ddlat": "disjunctive-hom"}


def brute_class_member(m, c: Structure, b: Structure, kind: str) -> bool:
    """Whether the map tuple m: c -> b is in the class named by kind: a
    morphism kind by its laws, a free kind by membership in the model class
    the free construction is free for."""
    if kind in MORPHISM_KINDS:
        return brute_satisfies_kind(m, c, b, kind)
    if kind == "poset-flat":
        return brute_flat_model(m, c, b)
    return brute_satisfies_kind(m, c, b, BRUTE_HOM_KIND[kind])


def hom_kind_supported(src: Structure, tgt: Structure, kind: str) -> bool:
    """Whether the morphism-kind gate lets kind morphisms join src to tgt."""
    try:
        _require_hom_kind(src, tgt, kind)
    except KindMismatch:
        return False
    return True


def brute_class_maps(c: Structure, b: Structure, kind: str) -> list[tuple[int, ...]]:
    """Every map c -> b in the class named by kind, ascending, by testing all
    b.n ** c.n maps with brute_class_member."""
    return [m for m in itertools.product(range(b.n), repeat=c.n)
            if brute_class_member(m, c, b, kind)]


@functools.lru_cache(maxsize=None)
def _brute_maps_into_powerset(c: Structure, k: int, kind: str) -> list[tuple[int, ...]]:
    return brute_class_maps(c, powerset_structure(k), kind)


def brute_universal_check(fr, atom_bound: int) -> tuple[bool, dict | None]:
    """The universal property of the free result fr by definition, with the
    witnesses of free.universal_property_check: for each k up to atom_bound,
    the maps c -> 2^k of the class (brute_class_maps) against the composite
    of the unit with every map of the k atoms to the points, where atom j
    sent to point q sets bit j of the images whose unit mask holds q."""
    c, units, npts = fr.source, fr.unit_masks, len(fr.spectrum.points)
    for k in range(1, atom_bound + 1):
        wanted = _brute_maps_into_powerset(c, k, fr.kind)
        got = sorted(tuple(sum((u >> q & 1) << j for j, q in enumerate(qs)) for u in units)
                     for qs in itertools.product(range(npts), repeat=k))
        dups = [g for i, g in enumerate(got) if i and got[i - 1] == g]
        if dups:
            return False, {"atoms": k, "duplicate": list(dups[0])}
        if got != wanted:
            return False, {"atoms": k,
                           "missing": [list(m) for m in sorted(set(wanted) - set(got))],
                           "extra": [list(m) for m in sorted(set(got) - set(wanted))]}
    return True, None


def brute_clopen_uppers(ps) -> list[int]:
    """Clopen upper sets of the preordered space ps, ascending: the opens are
    the brute-force up-sets of the minimal opens, and a set is clopen when it
    and its complement are open."""
    full = (1 << ps.n) - 1
    opens = set(brute_upper_sets(ps.space.minimal))
    return [u for u in brute_upper_sets(ps.preorder.up)
            if u in opens and full ^ u in opens]


def brute_weakly_indecomposable(ps) -> list[int]:
    """Clopen upper sets that are not the union of their proper clopen-upper
    subsets, by definition."""
    uppers = brute_clopen_uppers(ps)
    out = []
    for u in uppers:
        union = 0
        for v in uppers:
            if v != u and not v & ~u:
                union |= v
        if union != u:
            out.append(u)
    return out


def brute_frame_pullback(space) -> bool:
    """Whether the opens of space are its patch opens that are upper for its
    specialization order, by definition: the opens and their complements are
    closed under union and intersection, and the members that are up-sets of
    x <= y iff every open holding x holds y are compared with the opens."""
    n, opens = space.n, list(space.opens.masks)
    full = (1 << n) - 1
    patch = set(opens) | {full ^ m for m in opens}
    while True:
        grown = patch | {a | b for a in patch for b in patch} | {
            a & b for a in patch for b in patch}
        if grown == patch:
            break
        patch = grown
    leq = [[all(m >> y & 1 for m in opens if m >> x & 1) for y in range(n)]
           for x in range(n)]
    upper = [m for m in patch
             if all(m >> y & 1 for x in bits(m) for y in range(n) if leq[x][y])]
    return sorted(upper) == sorted(opens)


def brute_antisymmetry_failure(up) -> tuple[int, int] | None:
    """The first pair (i, j), i != j, with i <= j <= i in the preorder with
    up-rows up, walking i and then j <= i's successors in index order."""
    for i in range(len(up)):
        for j in bits(up[i]):
            if j != i and up[j] >> i & 1:
                return (i, j)
    return None


def brute_join(s: Structure, a: int, b: int) -> int | None:
    uppers = [x for x in range(s.n) if s.leq(a, x) and s.leq(b, x)]
    least = [x for x in uppers if all(s.leq(x, y) for y in uppers)]
    return least[0] if least else None


def brute_meet(s: Structure, a: int, b: int) -> int | None:
    lowers = [x for x in range(s.n) if s.leq(x, a) and s.leq(x, b)]
    greatest = [x for x in lowers if all(s.leq(y, x) for y in lowers)]
    return greatest[0] if greatest else None


def brute_join_of(s: Structure, family) -> int | None:
    """Join of a finite family, a pairwise fold over brute_join (read from
    brute_tables); the empty join is the least element, the one whose
    up-set is everything, and None stands for a join that is missing."""
    family, join = list(family), brute_tables(s)[1]
    if not family:
        return next((x for x, row in enumerate(s.base.up) if row == (1 << s.n) - 1), None)
    acc = family[0]
    for x in family[1:]:
        acc = join[acc, x]
        if acc is None:
            return None
    return acc


def brute_complement(s: Structure, a: int) -> int | None:
    """An element c whose only common lower bound with a is the least element
    and whose only common upper bound with a is the greatest (None if none)."""
    least = [x for x in range(s.n) if all(s.leq(x, y) for y in range(s.n))]
    greatest = [x for x in range(s.n) if all(s.leq(y, x) for y in range(s.n))]
    for c in range(s.n):
        lows = [x for x in range(s.n) if s.leq(x, a) and s.leq(x, c)]
        highs = [x for x in range(s.n) if s.leq(a, x) and s.leq(c, x)]
        if lows == least and highs == greatest:
            return c
    return None


def brute_tables(s: Structure) -> tuple[dict, dict]:
    """Meet and join of every ordered pair by the definitions of brute_meet
    and brute_join (the common lower bound above every other one, and
    dually), on the down- and up-sets of s taken once as Python sets; kept
    per order, since the map-scan references ask for them once per map."""
    return _brute_tables(s.labels, s.base.up)


@functools.lru_cache(maxsize=64)
def _brute_tables(labels, up) -> tuple[dict, dict]:
    rng = range(len(labels))
    below = [{y for y in rng if up[y] >> x & 1} for x in rng]
    above = [{y for y in rng if up[x] >> y & 1} for x in rng]

    def extreme(bounds, cone):
        return next((x for x in sorted(bounds) if bounds <= cone[x]), None)

    pairs = [(a, b) for a in rng for b in rng]
    return ({(a, b): extreme(below[a] & below[b], below) for a, b in pairs},
            {(a, b): extreme(above[a] & above[b], above) for a, b in pairs})


def brute_kind(s: Structure, meet: dict, join: dict) -> str:
    """The strongest kind of s straight from the definitions, given its
    brute-force tables: a top and all meets, then the distributive law (with
    complements), else meets distributing over the joins of disjoint pairs."""
    rng = range(s.n)
    top = [x for x in rng if all(s.leq(y, x) for y in rng)]
    bottom = [x for x in rng if all(s.leq(x, y) for y in rng)]
    if not top or None in meet.values():
        return "poset"
    if not bottom:
        return "meet-semilattice"
    m = [[meet[a, b] for b in rng] for a in rng]
    j = [[join[a, b] for b in rng] for a in rng]
    if None not in join.values() and all(
            m[a][j[b][c]] == j[m[a][b]][m[a][c]]
            for b, c in itertools.combinations(rng, 2) for a in rng):
        if all(brute_complement(s, a) is not None for a in rng):
            return "boolean-algebra"
        return "distributive-lattice"
    if all(join[a, b] is not None
           and all(meet[c, join[a, b]] == join[meet[c, a], meet[c, b]] for c in rng)
           for a in rng for b in rng if meet[a, b] == bottom[0]):
        return "dd-lattice"
    return "meet-semilattice"


def brute_closed_family(n_points: int, masks):
    """The error message structure_from_closed_masks must give for a family of
    subsets of n_points points, or, if the family is closed, its inclusion
    up-rows in ascending mask order; decided by every pairwise union and
    intersection."""
    masks = sorted(set(masks))
    if not masks or masks[0] != 0 or masks[-1] != (1 << n_points) - 1:
        return "closed family must contain the empty and full sets"
    family = set(masks)
    if any(a | b not in family or a & b not in family for a in masks for b in masks):
        return "set family is not closed under union/intersection"
    return [sum(1 << k for k, b in enumerate(masks) if not a & ~b) for a in masks]


def brute_topology_verdict(n_points: int, masks):
    """The message FiniteSpace must give for a family of subsets of n_points
    points, or None if it is a topology: it holds the empty and full sets
    and every pairwise union and intersection. A family that is not fails
    on intersections when it is not even a base (the intersection of two
    members is not a union of members), and on unions otherwise."""
    family = set(masks)
    if not {0, (1 << n_points) - 1} <= family:
        return "a topology contains the empty and full sets"
    unions, grown = set(family), None
    while grown != unions:
        grown = set(unions)
        unions |= {a | b for a in grown for b in grown}
    if any(a & b not in unions for a in family for b in family):
        return "family is not closed under intersections"
    if unions != family:
        return "family is not closed under unions"
    return None


def closure_reference(labels, pairs):
    """What validate_poset must give for labels and pairs, compared as
    strings: ("poset", up, dn), or (exception type, detail) with detail the
    unknown label or the cycle witness (the sorted labels of the points on a
    cycle through the least point that lies on one). The pairs are closed
    by structures.transitive_closure over the pair rows."""
    labels = [str(x) for x in labels]
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        for x in (str(a), str(b)):
            if x not in labels:
                return UnknownLabel, x
        rows[labels.index(str(a))] |= 1 << labels.index(str(b))
    up = transitive_closure(rows)
    for i in range(n):
        cycle = [x for x in range(n) if up[i] >> x & 1 and up[x] >> i & 1]
        if len(cycle) > 1:
            return AntisymmetryViolation, sorted(labels[x] for x in cycle)
    dn = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return "poset", up, dn


def random_set_family(rng):
    """A random family of subsets of up to 5 points, usually with the empty
    and full sets added, and closed under union and intersection about half
    of the time."""
    npts = rng.randint(0, 5)
    full = (1 << npts) - 1
    family = {rng.randrange(1 << npts) for _ in range(rng.randint(0, 6))}
    if rng.random() < 0.9:
        family |= {0, full}
    if rng.random() < 0.5:
        grown = None
        while grown != family:
            grown = set(family)
            family |= {a | b for a in grown for b in grown}
            family |= {a & b for a in grown for b in grown}
    return [f"x{i}" for i in range(npts)], sorted(family)


def warshall_poset(labels, pairs):
    """(up-rows, None) of the reflexive-transitive closure of a relation
    (Warshall on a boolean matrix), or (None, cycle) if it has one: the sorted
    labels of the class of mutually related points holding the least point
    on a cycle."""
    n = len(labels)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        reach[labels.index(a)][labels.index(b)] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    for i in range(n):
        cycle = [x for x in range(n) if reach[i][x] and reach[x][i]]
        if len(cycle) > 1:
            return None, sorted(labels[x] for x in cycle)
    return [sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)], None


def shuffled(p: Poset, rng) -> Poset:
    """p with its carrier indices permuted at random, so that index order
    need not be a linear extension."""
    old = list(range(p.n))
    rng.shuffle(old)
    new = {o: k for k, o in enumerate(old)}
    up = [sum(1 << new[j] for j in range(p.n) if p.leq(o, j)) for o in old]
    return Poset([p.labels[o] for o in old], up)


def listed_refined_colors(p: Poset) -> list[int]:
    """Colour refinement numbering each round's signatures by their place in
    the sorted list of distinct signatures (list.index): the colours that
    structures._refine_colors must give."""
    colors = [(bin(p.dn[i]).count("1"), bin(p.up[i]).count("1")) for i in range(p.n)]
    order = sorted(set(colors))
    colors = [order.index(c) for c in colors]
    for _ in range(p.n):
        sigs = [(colors[i],
                 tuple(sorted(colors[j] for j in range(p.n) if j != i and p.leq(j, i))),
                 tuple(sorted(colors[j] for j in range(p.n) if j != i and p.leq(i, j))))
                for i in range(p.n)]
        order = sorted(set(sigs))
        nxt = [order.index(s) for s in sigs]
        if nxt == colors:
            break
        colors = nxt
    return colors


def brute_canonical(p: Poset) -> tuple:
    """The lexicographically least relabelled up-rows over all n!
    permutations: a complete isomorphism invariant that uses no colors."""
    best = None
    for perm in itertools.permutations(range(p.n)):
        rows = tuple(sum(1 << perm.index(j) for j in bits(p.up[i])) for i in perm)
        if best is None or rows < best:
            best = rows
    return (p.n, best)


def brute_prime_filters(s: Structure) -> list[int]:
    full, join = (1 << s.n) - 1, brute_tables(s)[1]
    out = []
    for m in brute_filters(s):
        if m == full:
            continue
        if all(not (m >> join[a, b] & 1) or (m >> a & 1) or (m >> b & 1)
               for a in range(s.n) for b in range(s.n)):
            out.append(m)
    return out


def brute_disjunctive_filters(s: Structure) -> list[int]:
    """Proper filters detecting every join of a disjoint antichain family."""
    full, meet = (1 << s.n) - 1, brute_tables(s)[0]
    families = []
    for r in range(2, s.n + 1):
        for fam in itertools.combinations(range(s.n), r):
            if any(s.leq(a, b) or s.leq(b, a)
                   or meet[a, b] != s.bottom
                   for a, b in itertools.combinations(fam, 2)):
                continue
            join = fam[0]
            for a in fam[1:]:
                join = brute_join(s, join, a)
                if join is None:
                    break
            if join is not None:
                families.append((fam, join))
    out = []
    for m in brute_filters(s):
        if m == full:
            continue
        if all(not (m >> join & 1) or any(m >> a & 1 for a in fam)
               for fam, join in families):
            out.append(m)
    return out


def brute_join_irreducibles(s: Structure) -> list[int]:
    """The elements of the lattice s that are not the join of the elements
    strictly below them, by brute_join_of (the bottom is the empty join)."""
    return [x for x in range(s.n)
            if brute_join_of(s, [y for y in range(s.n) if y != x and s.leq(y, x)]) != x]


def brute_disjunctively_compact(s: Structure) -> int:
    """The mask of the disjunctively compact elements of the finite
    distributive lattice s, off brute_tables and brute_join_of: the
    join-irreducibles below d fall into classes, two in one class when their
    meet is not the bottom, and d is compact iff for every class join c the
    join of the x <= d not above c is not d. The bottom is compact via the
    empty family."""
    irreducible, meet = brute_join_irreducibles(s), brute_tables(s)[0]
    out = 0
    for d in range(s.n):
        unseen = [x for x in irreducible if s.leq(x, d)]
        joins = []
        while unseen:
            block = [unseen.pop()]
            for v in block:  # grows while it is read
                linked = [w for w in unseen if meet[v, w] != s.bottom]
                unseen = [w for w in unseen if w not in linked]
                block += linked
            joins.append(brute_join_of(s, block))
        if all(brute_join_of(s, [x for x in range(s.n) if s.leq(x, d) and not s.leq(c, x)])
               != d for c in joins):
            out |= 1 << d
    return out


def brute_recognize_free_boolean(i: StructureMorphism, kind: str) -> tuple[bool, dict | None]:
    """What recognize_free_boolean must give for the injective hom i of the
    class of kind (msl, dlat or ddlat) into a Boolean algebra b, through the
    lattice of up-sets of the trace order as a structure of its own. The
    primes of b are the up-rows of its atoms, and the trace of a prime is
    the set of source elements sent into it. The up-sets of the trace order
    (by brute_upper_sets) are a lattice of sets, the up-set u standing for
    the join in b of the atoms whose primes are in u; the target is the
    join-irreducible up-sets (msl), all of them (dlat), or the
    disjunctively compact ones by brute_disjunctively_compact (ddlat)."""
    b = i.target
    atoms = [x for x in range(b.n) if x != b.bottom and all(
        y in (x, b.bottom) for y in range(b.n) if b.leq(y, x))]
    primes = [b.base.up[x] for x in atoms]
    traces = [sum(1 << c for c, y in enumerate(i.map) if pm >> y & 1) for pm in primes]
    if len(set(traces)) != len(traces):
        return False, {"duplicate-trace": True}
    rows = [sum(1 << k2 for k2, t2 in enumerate(traces) if not t & ~t2) for t in traces]
    ups = brute_upper_sets(rows)
    sub = structure_from_closed_masks([f"t{k}" for k in range(len(primes))], ups)
    picked = {"msl": sum(1 << u for u in brute_join_irreducibles(sub)),
              "dlat": (1 << sub.n) - 1,
              "ddlat": brute_disjunctively_compact(sub)}[kind]
    target = {brute_join_of(b, [atoms[k] for k in bits(ups[u])]) for u in bits(picked)}
    image = set(i.map)
    if image == target:
        return True, None
    return False, {"missing": sorted(b.labels[x] for x in target - image),
                   "extra": sorted(b.labels[x] for x in image - target)}


def brute_oracle_members(d: Structure) -> list[int]:
    """The members of the Theorem 2.2 presented frame on d, ascending, by
    closing every ground subset's principal family and then joining every
    pair of members until nothing new appears.

    A family is a bitset over the ground subsets g of the doubled carrier
    (element e + n is e starred); bit g is set when g is in the family. The
    closure rules are the defining sequents written out pair by pair: the
    bounds, the complement axioms, and both directions of the meet and join
    of every pair, applied by a fixpoint loop with no use of generators and
    no rule table.
    """
    n, m = d.n, 2 * d.n
    ground = 1 << m
    contains = [sum(1 << g for g in range(ground) if g >> e & 1) for e in range(m)]

    def padded(fam: int, e: int) -> int:
        # bit g set iff g | {e} is in fam
        inside = fam & contains[e]
        return inside | inside >> (1 << e)

    seeds, (meet, join) = contains[d.bottom], brute_tables(d)
    for e in range(n):
        seeds |= contains[e] & contains[n + e]

    def close(fam: int) -> int:
        fam |= seeds
        while True:
            prev = fam
            for e in range(m):
                fam |= (fam & ~contains[e]) << (1 << e)
            fam |= padded(fam, d.top)
            for e in range(n):
                fam |= padded(fam, e) & padded(fam, n + e)
            for a in range(n):
                for b in range(a, n):
                    j, w = join[a, b], meet[a, b]
                    fam |= contains[j] & padded(fam, a) & padded(fam, b)
                    fam |= contains[a] & contains[b] & padded(fam, w)
                    fam |= contains[a] & padded(fam, j)
                    fam |= contains[b] & padded(fam, j)
                    fam |= contains[w] & padded(padded(fam, a), b)
            if fam == prev:
                return fam

    members = {close(1 << g) for g in range(ground)} | {close(0)}
    while True:
        joined = {close(x | y) for x in members for y in members} | members
        if joined == members:
            return sorted(members)
        members = joined


def lower_set_lattice(p) -> Structure:
    return structure_from_closed_masks(p.labels, p.lower_set_masks())


def random_lattice(rng, max_points: int) -> Structure:
    """Lower-set lattice of a random poset: always distributive (Birkhoff)."""
    return lower_set_lattice(random_poset(rng, rng.randint(1, max_points)))


def package_env() -> dict[str, str]:
    """The environment with PYTHONPATH led by the directory holding ``ordua``."""
    env = dict(os.environ)
    root = str(Path(ordua.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
