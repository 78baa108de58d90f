"""The benchmark's four seeded workloads.

Each workload turns a seed into a fixed batch of items. An item's ``run``
executes one pipeline through the public ``ordua`` API and returns a small
summary; its ``check`` judges that summary against references computed by
the benchmark itself (see checks.py). The runner repeats the batch for the
measured time, so every item is timed several times on identical input.

Why these workloads (each layer a later change may optimise dominates one of
them and is nearly idle in another):

* lattice-ladder: distributive lattices of up to 256 elements through
  validate -> classify -> prime filters -> Priestley space -> clopen-upper
  round trip -> free Boolean. classify's O(n^3) tables and the back-duality
  dominate; the point-set and topology layers stay light because the spectra
  have few points.
* spectrum-sweep: posets, meet-semilattices and dd-lattices of 12 elements
  (and 2^6) through the filter spectra and the free constructions. The 2^n
  scans in filters / generate_topology / FiniteSpace and the Bell-growth
  disjunctive families dominate; classify is negligible.
* enumerate-verify: every poset of at most 5 elements and every preorder on 4
  points, plus the oracle, the universal property, recognition and
  canonical forms. Per-call overhead, free.*, corpus and iso dominate, and
  the topologies are non-discrete (Alexandrov), unlike spectrum-sweep.
* cli-mix: ``python -m ordua.cli`` subprocesses on built-ins and seeded JSON
  documents, including inputs that must exit 1, 2 and 3. Process start,
  import, argparse and JSON rendering dominate.

Every item is kept below about 0.15 s so that a run can time it many times.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import checks

BOUND = 16       # carrier bound passed explicitly to every bounded call
ORACLE_BOUND = 6

HERE = os.path.dirname(os.path.abspath(__file__))


class Item:
    """One unit of work: ``run()`` returns a summary, ``check(summary)`` judges it."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Context:
    """What a workload function needs to make its items: the freshly imported
    layers, the seed's generator, a working directory and, for cli-mix, how
    to start children."""

    def __init__(self, ordua_modules: SimpleNamespace, seed: int, tiny: bool,
                 workdir: str, src_dir: str):
        self.o = ordua_modules
        self.rng = random.Random(seed)
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.src_dir = src_dir
        # set by the runner for traced cli passes: children then run under
        # the trace bootstrap and their spans are collected here
        self.child_trace = False
        self.child_spans: list[tuple[str, dict]] = []


def _equals(expected):
    return lambda got: got == expected


def _reference(compute):
    """Check against compute()'s value, computed once on first use so that
    reference work stays out of the set-up time."""
    value = []

    def check(got) -> bool:
        if not value:
            value.append(compute())
        return got == value[0]

    return check


def _relabel(labels, rng) -> list[str]:
    """A seeded renaming of the carrier; the index order is kept."""
    names = list(labels)
    rng.shuffle(names)
    return names


def _order_document(up, names, rng) -> str:
    """Label/pair JSON document: the elements in the given (linear extension)
    order, which fixes the cost of classify's table scans for a given order,
    and the cover pairs shuffled."""
    dn = checks.transpose(up)
    pairs = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        # j covers i when nothing strictly above i lies strictly below j
        pairs += [[names[i], names[j]] for j in checks.bits(strict)
                  if dn[j] & strict == 1 << j]
    rng.shuffle(pairs)
    return json.dumps({"elements": list(names), "leq": pairs})


def _down_set_lattice(p_up) -> tuple[int, ...]:
    """Up rows of the lattice of down-sets of a poset, ordered by inclusion,
    indexed by size and then mask (a linear extension)."""
    ds = sorted(checks.down_sets(p_up), key=lambda d: (d.bit_count(), d))
    return tuple(sum(1 << j for j, e in enumerate(ds) if d & ~e == 0) for d in ds)


def _boolean_rows(k: int) -> tuple[int, ...]:
    n = 1 << k
    return tuple(sum(1 << j for j in range(n) if i & ~j == 0) for i in range(n))


def _targeted_poset(o, rng, npts: int, density: float, lo: int, hi: int):
    """A random_poset whose down-set count lies in [lo, hi], so that an item's
    cost hardly depends on the seed."""
    while True:
        p = o.corpus.random_poset(rng, npts, density)
        if lo <= checks.antichain_count(p.up) <= hi:
            return p


# ---------------------------------------------------------------- lattice-ladder

def lattice_ladder(ctx: Context) -> list[Item]:
    o, rng = ctx.o, ctx.rng
    specs = []  # (name, lattice up rows, join-irreducible count, boolean?)
    for k in ((2, 3) if ctx.tiny else (5, 6, 7, 8)):
        specs.append((f"boolean-2^{k}", _boolean_rows(k), k, True))
    bands = ([(4, 0.3, 6, 10, 2)] if ctx.tiny else
             [(8, 0.2, 68, 72, 16), (10, 0.2, 132, 138, 12)])
    for npts, density, lo, hi, count in bands:
        for r in range(count):
            p = _targeted_poset(o, rng, npts, density, lo, hi)
            antichain = all(row == 1 << i for i, row in enumerate(p.up))
            specs.append((f"downsets-{npts}pt-{r}", _down_set_lattice(p.up), npts, antichain))
    items = []
    for name, up, ji, boolean in specs:
        n = len(up)
        doc = _order_document(up, _relabel([f"e{i}" for i in range(n)], rng), rng)
        kind = "boolean-algebra" if boolean else "distributive-lattice"
        expected = (n, kind, ji, ji, 1 << ji, True, n, 1 << ji)
        items.append(Item(name, _ladder_run(o, doc), _equals(expected)))
    return items


def _ladder_run(o, doc: str):
    S, D, F = o.structures, o.dualities, o.free

    def run():
        d = json.loads(doc)
        p = S.validate_poset(d["elements"], [tuple(pair) for pair in d["leq"]])
        s = S.classify(p)
        primes = S.prime_filters(s)
        res = D.priestley_of_dlat(s, BOUND)
        ok, rebuilt, _iso = D.roundtrip_check(s, BOUND)
        fr = F.free_boolean(s, "dlat", BOUND)
        return (s.n, s.kind, len(primes), res.n_points, len(res.space.space.opens),
                ok, rebuilt.n, fr.size)

    return run


# ---------------------------------------------------------------- spectrum-sweep

def spectrum_sweep(ctx: Context) -> list[Item]:
    o, rng = ctx.o, ctx.rng
    S = o.structures
    items = []
    # random posets at two densities; the down-set band keeps the free frame
    # under its 1024-element cap and each item's cost steady across seeds
    posets = ([(6, 0.3, 8, 30, 2)] if ctx.tiny else
              [(12, 0.2, 180, 260, 6), (12, 0.5, 26, 34, 6)])
    for npts, density, lo, hi, count in posets:
        for r in range(count):
            p = _targeted_poset(o, rng, npts, density, lo, hi)
            p = S.Poset(_relabel(p.labels, rng), p.up)
            downs = checks.antichain_count(p.up)
            expected = (npts, 1 << npts, downs, npts, downs)
            items.append(Item(f"poset-{npts}pt-d{density}-{r}", _sweep_poset_run(o, p),
                              _equals(expected)))
    # meet-semilattices: a chain and random intersection-closed families
    msls = [(f"chain-{n}", _chain_rows(n)) for n in ((4,) if ctx.tiny else (12,))]
    for r in range(0 if ctx.tiny else 6):
        msls.append((f"meet-closed-{r}", _meet_closed_rows(rng, 5, 12, 12)))
    for name, up in msls:
        s = _structure(S, up, rng).with_kind("meet-semilattice")
        items.append(Item(f"msl-{name}", _sweep_msl_run(o, s), _equals((s.n, 1 << s.n))))
    # free distributive lattices on small meet-semilattices
    small = [_chain_rows(3), _chain_rows(4), _boolean_rows(2), _m3_rows(), _boolean_rows(3)]
    for r, up in enumerate(small):
        s = _structure(S, up, rng).with_kind("meet-semilattice")
        items.append(Item(f"free-dlat-msl-{r}", _sweep_free_dlat_run(o, s),
                          _reference(lambda up=s.base.up: checks.free_dlat_size_on_msl(up))))
    # dd-lattices: 2^6 (closed form: its disjunctive filters are the principal
    # filters of atoms) and small ones against the brute-force reference
    k = 3 if ctx.tiny else 6
    s = _structure(S, _boolean_rows(k), rng).with_kind("dd-lattice")
    dn = checks.transpose(s.base.up)
    atoms = tuple(sorted(s.base.up[a] for a in range(s.n) if dn[a].bit_count() == 2))
    items.append(Item(f"dd-boolean-2^{k}", _sweep_dd_run(o, s, free=True),
                      _equals((atoms, 1 << k, 1 << k))))
    small_dd = [_boolean_rows(2), _boolean_rows(3)]
    small_dd += [_down_set_lattice(_targeted_poset(o, rng, 4, 0.3, 6, 10).up)
                 for _ in range(1 if ctx.tiny else 2)]
    for r, up in enumerate(small_dd):
        s = _structure(S, up, rng).with_kind("dd-lattice")
        items.append(Item(f"dd-small-{r}", _sweep_dd_run(o, s, free=False),
                          _reference(lambda up=s.base.up: _disjunctive_summary(up))))
    return items


def _disjunctive_summary(up):
    points = tuple(sorted(checks.brute_disjunctive_filters(up)))
    return points, 1 << len(points), None


def _chain_rows(n: int) -> tuple[int, ...]:
    return tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n))


def _m3_rows() -> tuple[int, ...]:
    return (0b11111, 0b10010, 0b10100, 0b11000, 0b10000)


def _meet_closed_rows(rng, ground: int, lo: int, hi: int) -> tuple[int, ...]:
    """Inclusion order of a random intersection-closed family of subsets of a
    ground set, with the full set as top, of size in [lo, hi]."""
    full = (1 << ground) - 1
    while True:
        fam = {full}
        for _ in range(rng.randint(2, ground + 2)):
            fam.add(rng.randrange(1 << ground))
        changed = True
        while changed:
            changed = False
            for a in list(fam):
                for b in list(fam):
                    if a & b not in fam:
                        fam.add(a & b)
                        changed = True
        if lo <= len(fam) <= hi:
            masks = sorted(fam)
            return tuple(sum(1 << j for j, mj in enumerate(masks) if mi & ~mj == 0)
                         for mi in masks)


def _structure(S, up, rng):
    return S.classify(S.Poset(_relabel([f"e{i}" for i in range(len(up))], rng), up))


def _sweep_poset_run(o, p):
    S, D, F = o.structures, o.dualities, o.free

    def run():
        res = D.poset_spectrum(p, BOUND)
        c = S.classify(p)
        mono = F.free_boolean(c, "poset-monotone", BOUND)
        flat = F.free_boolean(c, "poset-flat", BOUND)
        frame = F.free_frame_on_poset(p, BOUND)
        return (res.n_points, len(res.space.space.opens), len(mono.points),
                len(flat.points), frame.size)

    return run


def _sweep_msl_run(o, s):
    D = o.dualities

    def run():
        res = D.msl_spectrum(s, BOUND)
        return (res.n_points, len(res.space.space.opens))

    return run


def _sweep_free_dlat_run(o, s):
    F = o.free
    return lambda: F.free_dlat_on_msl(s, BOUND).size


def _sweep_dd_run(o, s, free: bool):
    D, F = o.dualities, o.free

    def run():
        res = D.ddlat_spectrum(s, BOUND)
        size = F.free_dlat_on_ddlat(s, BOUND).size if free else None
        return (tuple(sorted(res.point_filters.masks)), len(res.space.space.opens), size)

    return run


# -------------------------------------------------------------- enumerate-verify

POSET_COUNTS = (1, 2, 5, 16, 63)     # posets on 1..5 points, up to isomorphism
PREORDER_COUNTS = (1, 4, 29, 355)    # labelled preorders on 1..4 points


def enumerate_verify(ctx: Context) -> list[Item]:
    """Tiny structures are grouped into items of a few milliseconds each, so
    that every item is long enough to time steadily."""
    o, rng = ctx.o, ctx.rng
    S, SP, C = o.structures, o.spaces, o.corpus
    top = 3 if ctx.tiny else 5
    items = [Item(f"all-posets-1-{top - 1}", _fresh_corpus_run(C, "all_posets", range(1, top)),
                  _equals(POSET_COUNTS[:top - 1])),
             Item(f"all-posets-{top}", _fresh_corpus_run(C, "all_posets", [top]),
                  _equals(POSET_COUNTS[top - 1:top]))]
    pre_n = 3 if ctx.tiny else 4
    items.append(Item(f"all-preorders-{pre_n}", _fresh_corpus_run(C, "all_preorders", [pre_n]),
                      _equals(PREORDER_COUNTS[pre_n - 1:pre_n])))
    posets = C.all_posets_up_to(top)
    for name, group in _groups(posets, 21, key=lambda p: max(p.n, top - 2)):
        items.append(Item(f"posets-{name}", _verify_posets_run(o, group),
                          _reference(lambda g=group: tuple(
                              (checks.brute_kind(p.up), True, checks.is_lattice(p.up), True)
                              for p in g))))
    labels = [f"x{i}" for i in range(pre_n)]
    preorders = [SP.Preorder(labels, rows) for rows in C.all_preorders(pre_n)]
    for name, group in _groups(preorders, 30):
        items.append(Item(f"preorders-{name}", _verify_preorders_run(o, group),
                          _reference(lambda g=group: tuple(
                              (checks.up_set_count(pre.up), tuple(pre.up),
                               True if _antisymmetric(pre.up) else None) for pre in g))))
    # universal property: atom bound 3 on posets of at most 3 points, 2 on 4
    small = [p for p in posets if p.n <= 3]
    for kind in ("poset-monotone", "poset-flat"):
        items.append(Item(f"universal-{kind}-le3", _universal_run(o, small, kind, 3),
                          _equals((True,) * len(small))))
    if not ctx.tiny:
        four = [p for p in posets if p.n == 4]
        items.append(Item("universal-poset-monotone-4", _universal_run(o, four, "poset-monotone", 2),
                          _equals((True,) * len(four))))
    # the oracle against the free Boolean algebra, and recognition of free units
    lattices = [("C2", _chain_rows(2), 1), ("C3", _chain_rows(3), 2), ("D4", _boolean_rows(2), 2)]
    if not ctx.tiny:
        lattices += [("C4", _chain_rows(4), 3), ("C5", _chain_rows(5), 4)]
    structures = []
    for name, up, ji in lattices:
        s = _structure(S, up, rng)
        structures.append(s)
        items.append(Item(f"oracle-{name}", _oracle_run(o, s), _equals((1 << ji, True))))
    c3 = _structure(S, _chain_rows(3), rng).with_kind("meet-semilattice")
    d4 = _structure(S, _boolean_rows(2), rng)
    items.append(Item("recognize", _recognize_run(o, structures, c3, d4),
                      _equals((True,) * (len(structures) + 1) + (False,))))
    # canonical forms of seeded 7-element posets under relabelling;
    # canonical_form's cost grows with the number of order pairs, so that is
    # pinned to keep the batch's cost independent of the seed
    npts, strict = (5, 4) if ctx.tiny else (7, 8)
    for r in range(1 if ctx.tiny else 6):
        p = o.corpus.random_poset(rng, npts, 0.3)
        while sum(row.bit_count() for row in p.up) != npts + strict:
            p = o.corpus.random_poset(rng, npts, 0.3)
        perm = list(range(npts))
        rng.shuffle(perm)
        up = [0] * npts
        for i in range(npts):
            for j in checks.bits(p.up[i]):
                up[perm[i]] |= 1 << perm[j]
        q = S.Poset(p.labels, up)
        items.append(Item(f"canonical-{npts}pt-{r}", _canonical_run(o, p, q),
                          _canonical_check(npts)))
    return items


def _groups(seq, size: int, key=None):
    """Consecutive groups of at most size elements (of equal key, if given)."""
    out = []
    for x in seq:
        k = None if key is None else key(x)
        if not out or len(out[-1][1]) == size or out[-1][0] != k:
            out.append((k, []))
        out[-1][1].append(x)
    return [(f"{r}" if k is None else f"{k}-{r}", g) for r, (k, g) in enumerate(out)]


def _antisymmetric(rows) -> bool:
    return all(not (rows[j] >> i & 1) for i in range(len(rows))
               for j in checks.bits(rows[i]) if j != i)


def _fresh_corpus_run(corpus, fn_name: str, sizes):
    def run():
        # the corpus memoizes per size; clear its module-level caches so
        # each pass enumerates
        for name, value in vars(corpus).items():
            if name.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
        return tuple(len(getattr(corpus, fn_name)(n)) for n in sizes)

    return run


def _verify_posets_run(o, posets):
    S, SP, D = o.structures, o.spaces, o.dualities

    def one(p):
        s = S.classify(p)
        discrete = SP.FiniteSpace(p.labels, range(1 << p.n))
        ps = SP.PreorderedSpace(discrete, SP.Preorder.from_poset(p))
        coherent, _ = D.extended_image_check(ps, "coherent-poset")
        msl, _ = D.extended_image_check(ps, "msl")
        pullback = SP.check_frame_pullback(
            SP.alexandrov_space(SP.Preorder.from_poset(p), BOUND), BOUND)
        return (s.kind, coherent, msl, pullback)

    return lambda: tuple(one(p) for p in posets)


def _verify_preorders_run(o, preorders):
    SP = o.spaces

    def one(pre):
        space = SP.alexandrov_space(pre, BOUND)
        spec = SP.specialization_preorder(space)
        pullback = SP.check_frame_pullback(space, BOUND) if spec.is_antisymmetric() else None
        return (len(space.opens), tuple(spec.up), pullback)

    return lambda: tuple(one(pre) for pre in preorders)


def _universal_run(o, posets, kind: str, atoms: int):
    S, F = o.structures, o.free

    def one(p):
        fr = F.free_boolean(S.classify(p), kind, BOUND)
        return F.universal_property_check(fr, atoms)[0]

    return lambda: tuple(one(p) for p in posets)


def _oracle_run(o, s):
    S, F = o.structures, o.free

    def run():
        orc = F.thm22_oracle(s, ORACLE_BOUND)
        fr = F.free_boolean(s, "dlat", BOUND)
        pins = {orc.unit[i]: fr.unit[i] for i in range(s.n)}
        iso = S.structure_isomorphism(orc.structure, fr.structure, pins)
        return (len(orc.family), iso is not None)

    return run


def _recognize_run(o, lattices, c3_msl, d4):
    """True for the free units of each lattice (dlat) and of C3 (msl), False
    for the identity on D4 as a meet-hom."""
    S, F = o.structures, o.free

    def run():
        out = [F.recognize_free_boolean(
            F.free_boolean(s, "dlat", BOUND).unit_morphism("lattice-hom"), "dlat")[0]
            for s in lattices]
        unit = F.free_boolean(c3_msl, "msl", BOUND).unit_morphism("meet-hom")
        out.append(F.recognize_free_boolean(unit, "msl")[0])
        ident = S.StructureMorphism(d4, d4, range(d4.n), "meet-hom")
        out.append(F.recognize_free_boolean(ident, "msl")[0])
        return tuple(out)

    return run


def _canonical_run(o, p, q):
    S = o.structures
    return lambda: (S.canonical_form(p), S.canonical_form(q))


def _canonical_check(npts: int):
    def check(got) -> bool:
        a, b = got
        return a == b and a[0] == npts and len(a[1]) == npts
    return check


# ---------------------------------------------------------------------- cli-mix

def cli_mix(ctx: Context) -> list[Item]:
    o, rng = ctx.o, ctx.rng
    docs = {}

    def write(name: str, text: str) -> str:
        path = os.path.join(ctx.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        docs[name] = path
        return path

    n_docs = 1 if ctx.tiny else 2
    lattices, posets = [], []
    for r in range(n_docs):
        up = _down_set_lattice(_targeted_poset(o, rng, 5, 0.3, 10, 14).up)
        doc = _order_document(up, _relabel([f"l{i}" for i in range(len(up))], rng), rng)
        lattices.append(write(f"lattice-{r}.json", doc))
        p = _targeted_poset(o, rng, 6, 0.35, 1, 40)
        doc = _order_document(p.up, _relabel([f"p{i}" for i in range(p.n)], rng), rng)
        posets.append(write(f"poset-{r}.json", doc))
    write("bad.json", '{"elements": ["a", "b"], "leq": [["a", "b"]')
    write("identity-d4.json", json.dumps(
        {"source": "D4", "target": "D4", "kind": "meet-hom",
         "map": {"0": "0", "a": "a", "b": "b", "1": "1"}}))

    bounds = ["--bound", "12", "--oracle-bound", "3"]
    specs = []  # (name, argv, expected exit, predicate on the JSON report or None)
    for b in ("C3", "D4", "M3", "N5"):
        specs.append((f"classify-{b}", ["classify", b], 0, lambda d: "kind" in d))
    for b in ("D4", "A3"):
        specs.append((f"spectrum-{b}", ["spectrum", b], 0, _patch_is_discrete))
    for r, path in enumerate(lattices):
        specs.append((f"classify-lattice-{r}", ["classify", path], 0,
                      lambda d: d["kind"] in ("distributive-lattice", "boolean-algebra")))
        specs.append((f"spectrum-lattice-{r}", ["spectrum", path], 0, _patch_is_discrete))
        specs.append((f"priestley-lattice-{r}", ["priestley", path], 0,
                      lambda d: d["priestley"]["is-priestley"] is True))
        specs.append((f"roundtrip-lattice-{r}", ["roundtrip", path], 0,
                      lambda d: d["ok"] is True and d["clopen-uppers"] == d["size"]))
    for r, path in enumerate(posets):
        specs.append((f"spectrum-poset-{r}", ["spectrum", path], 0, _patch_is_discrete))
        specs.append((f"free-bool-poset-{r}", ["free-bool", path], 0,
                      lambda d: d["size"] == 1 << d["points"]))
        specs.append((f"free-frame-poset-{r}", ["free-frame", path], 0,
                      lambda d: d["size"] >= 2))
    specs.append(("priestley-D4", ["priestley", "D4"], 0,
                  lambda d: d["priestley"]["is-priestley"] is True))
    specs.append(("roundtrip-C4", ["roundtrip", "C4"], 0, lambda d: d["ok"] is True))
    specs.append(("free-bool-A2", ["free-bool", "A2"], 0, lambda d: d["size"] == 16))
    specs.append(("free-dlat-M3", ["free-dlat", "M3"], 0, lambda d: d["size"] == 10))
    specs.append(("free-dlat-D4", ["free-dlat", "D4"], 0, lambda d: d["size"] == 4))
    specs.append(("free-frame-A3", ["free-frame", "A3"], 0,
                  lambda d: d["size"] == 8 and d["supercompact-count"] == 3))
    specs.append(("oracle-C2", ["oracle", "C2"], 0,
                  lambda d: d["matches-free"] is True and d["frame-size"] == 2))
    specs.append(("oracle-C3", ["oracle", "C3"], 0,
                  lambda d: d["matches-free"] is True and d["frame-size"] == 4))
    specs.append(("recognize-identity-D4", ["recognize", docs["identity-d4.json"]], 1,
                  lambda d: d["ok"] is False))
    specs.append(("malformed-json", ["classify", docs["bad.json"]], 2, None))
    specs.append(("roundtrip-N5", ["roundtrip", "N5"], 2, None))
    specs.append(("oracle-C4-default-bound", ["oracle", "C4"], 3, None))
    same_stdout: dict = {}
    for r in range(2):
        specs.append((f"selftest-{r}", ["selftest", "--seed", str(ctx.seed)], 0,
                      _selftest_check(same_stdout)))
    if ctx.tiny:
        keep = {"classify-C3", "spectrum-lattice-0", "roundtrip-lattice-0",
                "recognize-identity-D4", "malformed-json", "roundtrip-N5",
                "oracle-C4-default-bound", "selftest-0", "selftest-1"}
        specs = [s for s in specs if s[0] in keep]

    # bounds are passed on the command line, never taken from the caller's
    # ORDUA_BOUND; string hashing is fixed so children repeat the same work
    env = {k: v for k, v in os.environ.items() if k != "ORDUA_BOUND"}
    env["PYTHONPATH"] = ctx.src_dir
    env["PYTHONHASHSEED"] = "0"
    items = []
    for name, argv, code, predicate in specs:
        items.append(Item(name, _cli_run(ctx, name, argv + bounds, env),
                          _cli_check(code, predicate)))
    return items


def _patch_is_discrete(d) -> bool:
    return d["patch-opens"] == 1 << len(d["points"])


def _selftest_check(same_stdout: dict):
    def predicate(d, stdout=None) -> bool:
        ok = d["ok"] is True and all(c["ok"] for c in d["checks"])
        reference = same_stdout.setdefault("stdout", stdout)
        return ok and stdout == reference
    predicate.wants_stdout = True
    return predicate


def _cli_run(ctx: Context, name: str, argv: list[str], env: dict):
    def run():
        if ctx.child_trace:
            spans_path = os.path.join(ctx.workdir, "child-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "ordua.cli", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        if ctx.child_trace:
            with open(spans_path, encoding="utf-8") as fh:
                ctx.child_spans.append((name, json.load(fh)))
            os.remove(spans_path)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _cli_check(code: int, predicate):
    def check(got) -> bool:
        rc, out, err = got
        if rc != code or b"Traceback" in err:
            return False
        if predicate is None:  # error exits print nothing on stdout
            return out == b"" and err.startswith(b"ordua: error:")
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        if getattr(predicate, "wants_stdout", False):
            return predicate(doc, out)
        return bool(predicate(doc))

    return check


WORKLOADS = {
    "lattice-ladder": lattice_ladder,
    "spectrum-sweep": spectrum_sweep,
    "enumerate-verify": enumerate_verify,
    "cli-mix": cli_mix,
}

# stages expected to lead each in-process workload's trace by self time
PREDICTED_LEADERS = {
    "lattice-ladder": ("structures.classify",),
    "spectrum-sweep": ("spaces.topology", "structures.points"),
    "enumerate-verify": ("free.boolean", "free.lattice", "free.universal", "free.oracle",
                         "free.recognize", "corpus.enumerate", "structures.iso"),
}
