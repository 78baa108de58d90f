"""Command line front end.

Structure documents are JSON: {"elements": [...], "leq": [[a, b], ...]} with
optional "kind-hint" and "name". Morphism documents are JSON with "source",
"target" (built-in structure names or paths), "map" (label -> label) and
"kind". Exit codes: 0 success / property holds, 1 checked property fails,
2 malformed input or unsupported request, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from ordua.corpus import all_preorders, random_poset
from ordua.dualities import (
    DUALITY_KINDS,
    DualityResult,
    dlat_of_priestley,
    duality_class,
    extended_image_check,
    priestley_of_dlat,
    roundtrip_check,
    spectrum_for,
)
from ordua.errors import (
    CarrierTooLarge,
    InputFormatError,
    KindHintMismatch,
    KindMismatch,
    OrduaError,
)
from ordua.free import (
    _ALGEBRA_KINDS,
    FreeResult,
    free_boolean,
    free_dlat_on_ddlat,
    free_dlat_on_msl,
    free_frame_on_poset,
    frame_supercompacts,
    recognize_free_boolean,
    thm22_oracle,
    universal_property_check,
)
from ordua.spaces import (
    FiniteSpace,
    Preorder,
    PreorderedSpace,
    _discrete,
    alexandrov_space,
    check_frame_pullback,
    check_patch_characterization,
    priestley_check,
)
from ordua.setlattices import _lattice_of_upsets
from ordua.spectra import MODEL_CLASSES
from ordua.structures import (
    DEFAULT_ENUMERATION_BOUND,
    KIND_RANK,
    KINDS,
    MORPHISM_KINDS,
    Poset,
    SetFamily,
    Structure,
    StructureMorphism,
    bits,
    classify,
    count_upper_sets,
    cover_pairs,
    disjunctive_filters,
    filters,
    prime_filters,
    structure_isomorphism,
    validate_poset,
)

COMMANDS = ("validate", "classify", "spectrum", "priestley", "dualize-back",
            "free-bool", "free-dlat", "free-frame", "oracle", "roundtrip",
            "recognize", "extimage", "check-pullback", "selftest")

_BUILTIN_SPECS: dict[str, tuple[list[str], list[tuple[str, str]]]] = {
    "C1": (["0"], []),
    "C2": (["0", "1"], [("0", "1")]),
    "C3": (["0", "a", "1"], [("0", "a"), ("a", "1")]),
    "C4": (["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "1")]),
    "A2": (["p", "q"], []),
    "A3": (["p", "q", "r"], []),
    "D4": (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    "M3": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]),
    "N5": (["0", "a", "b", "c", "1"],
           [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")]),
}


def builtin_structure(name: str) -> Structure:
    elements, pairs = _BUILTIN_SPECS[name]
    return classify(validate_poset(elements, pairs))


def _structure_from_document(doc: dict) -> Structure:
    if not isinstance(doc, dict):
        raise InputFormatError("structure document must be a JSON object")
    if "elements" not in doc or "leq" not in doc:
        raise InputFormatError('structure document needs "elements" and "leq"')
    elements = doc["elements"]
    leq = doc["leq"]
    if (not isinstance(elements, list)
            or not all(isinstance(x, str) for x in elements)):
        raise InputFormatError('"elements" must be a list of strings')
    if (not isinstance(leq, list)
            or not all(isinstance(p, list) and len(p) == 2 for p in leq)):
        raise InputFormatError('"leq" must be a list of [a, b] pairs')
    s = classify(validate_poset(elements, [(p[0], p[1]) for p in leq]))
    hint = doc.get("kind-hint")
    if hint is not None:
        if hint not in KINDS:
            raise InputFormatError(f"unknown kind-hint {hint!r}")
        if KIND_RANK[hint] > s.rank():
            raise KindHintMismatch(
                f"kind-hint {hint!r} exceeds classified kind {s.kind!r}")
        s = s.with_kind(hint)
    return s


def _read_document(path: str, shown: str):
    """The JSON document at path; errors name it as shown."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputFormatError(f"cannot read {shown}: {e}") from e
    except (ValueError, RecursionError) as e:
        # also bytes not in UTF-8, too many digits, too deep nesting
        raise InputFormatError(f"invalid JSON in {shown}: {e}") from e


def load_structure(path_or_name: str, base_dir: str | None = None) -> Structure:
    """Load a structure document from a path, or take a built-in by name."""
    if path_or_name in _BUILTIN_SPECS:
        return builtin_structure(path_or_name)
    path = path_or_name
    if base_dir is not None and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base_dir, path)
        if os.path.exists(candidate):
            path = candidate
    return _structure_from_document(_read_document(path, path_or_name))


def load_morphism(path: str) -> StructureMorphism:
    doc = _read_document(path, path)
    if not isinstance(doc, dict):
        raise InputFormatError("morphism document must be a JSON object")
    for key in ("source", "target", "map", "kind"):
        if key not in doc:
            raise InputFormatError(f'morphism document needs "{key}"')
    if doc["kind"] not in MORPHISM_KINDS:
        raise InputFormatError(f"unknown morphism kind {doc['kind']!r}")
    if not isinstance(doc["map"], dict):
        raise InputFormatError('"map" must be an object of label pairs')
    base = os.path.dirname(os.path.abspath(path))
    src = load_structure(str(doc["source"]), base)
    tgt = load_structure(str(doc["target"]), base)
    return StructureMorphism.from_labels(src, tgt, doc["map"], doc["kind"])


def export_structure_document(s: Structure) -> dict:
    """Canonical document: sorted elements, sorted non-reflexive pairs, kind-hint."""
    labels, up = s.labels, s.base.up
    pairs = sorted([labels[i], labels[j]] for i in range(s.n) for j in bits(up[i]) if i != j)
    return {"elements": sorted(labels), "leq": pairs, "kind-hint": s.kind}


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj) -> str:
    """Render a poset, structure, free algebra or space as a DOT digraph
    (edges are the cover relation, drawn bottom-up)."""
    if isinstance(obj, FreeResult):
        obj = obj.structure
    if isinstance(obj, Structure):
        labels, up = obj.base.labels, obj.base.up
        note = f"kind: {obj.kind}"
    elif isinstance(obj, Poset):
        labels, up = obj.labels, obj.up
        note = "poset"
    elif isinstance(obj, PreorderedSpace):
        labels, up = obj.labels, obj.preorder.up
        note = f"opens: {count_upper_sets(obj.space.up)}"
    elif isinstance(obj, FiniteSpace):
        labels, up = obj.labels, obj.up
        note = f"opens: {count_upper_sets(obj.up)}"
    else:
        raise InputFormatError(f"no DOT rendering for {type(obj).__name__}")
    lines = ["digraph {", "  rankdir=BT;", f"  label={_dot_quote(note)};"]
    for i, lab in enumerate(labels):
        lines.append(f"  n{i} [label={_dot_quote(lab)}];")
    for i, j in cover_pairs(up):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _filters_as_labels(s_labels, masks) -> list[list[str]]:
    return [[s_labels[i] for i in bits(m)] for m in masks]


def _spectrum_report(s: Structure, res: DualityResult, duality: str) -> dict:
    sp = res.spectrum
    report = {
        "duality": duality,
        "points": [{"label": sp.labels[k], "filter": members}
                   for k, members in enumerate(
                       _filters_as_labels(s.labels, sp.points.masks))],
        "order-covers": sorted([sp.labels[i], sp.labels[j]]
                               for i, j in cover_pairs(sp.order)),
        "patch-opens": 1 << len(sp.points),  # the patch space is discrete
        "embedding": {s.labels[i]: sorted(sp.labels[k] for k in bits(sp.basics[i]))
                      for i in range(s.n)},
    }
    # the Stone (dlat) and witness (poset) spaces are the up-sets of inclusion;
    # the Stone opens are the down-sets of J(s), one per element (Birkhoff)
    if duality == "dlat":
        report["stone-opens"] = s.n
    elif duality == "poset":
        report["A-opens"] = count_upper_sets(sp.order)
    return report


def _strongest(s: Structure, kinds, class_of=lambda kind: kind) -> str | None:
    """The first of kinds whose model class needs the strongest structure
    kind that s has; None if s has the kind of none of them."""
    rank = {k: KIND_RANK[MODEL_CLASSES[class_of(k)].needs] for k in kinds}
    return max([k for k in kinds if rank[k] <= s.rank()], key=rank.get, default=None)


def _free_report(fr: FreeResult) -> dict:
    # a size above the interpreter's int-to-str digit limit (0: none) cannot print
    limit = sys.get_int_max_str_digits()
    npts = len(fr.spectrum.points)
    if limit and fr.size >= 10 ** limit:
        digits = math.floor(npts * math.log10(2)) + 1
        raise CarrierTooLarge(
            f"free algebra size 2^{npts} has {digits} decimal digits; "
            f"the int-to-str digit limit is {limit}")
    report = {
        "model-class": fr.kind,
        "points": npts,
        "size": fr.size,
        "unit": {fr.source.labels[i]:
                 sorted(fr.spectrum.labels[k] for k in bits(fr.unit_masks[i]))
                 for i in range(fr.source.n)},
    }
    return report


def _discrete_priestley(s: Structure, bound: int) -> PreorderedSpace:
    """The order of s with the discrete topology: always a Priestley space."""
    if s.n > bound:
        raise CarrierTooLarge(f"carrier {s.n} exceeds bound {bound}")
    return PreorderedSpace(_discrete(s.labels, bound), Preorder.from_poset(s.base))


def selftest(seed: int, bound: int) -> dict:
    """Deterministic miniature of the verification suite."""
    checks: list[dict] = []

    def record(name: str, ok: bool) -> None:
        checks.append({"name": name, "ok": bool(ok)})

    c3 = builtin_structure("C3")
    d4 = builtin_structure("D4")
    record("chain-filter-counts",
           len(filters(c3)) == 3 and len(prime_filters(c3)) == 2)
    record("diamond-filter-counts",
           len(filters(d4)) == 4 and len(prime_filters(d4)) == 2
           and len(disjunctive_filters(d4)) == 2)
    a2 = builtin_structure("A2")
    record("free-sizes",
           free_boolean(a2, "poset-monotone").size == 16
           and free_boolean(c3, "dlat").size == 4
           and free_boolean(c3.with_kind("meet-semilattice"), "msl").size == 8)
    c2 = builtin_structure("C2")
    orc = thm22_oracle(c2, 3)
    fr2 = free_boolean(c2, "dlat")
    pins = {orc.unit[i]: fr2.unit[i] for i in range(c2.n)}
    record("oracle-chain",
           len(orc.family) == 2
           and structure_isomorphism(orc.structure, fr2.structure, pins) is not None)
    ok_round = True
    ok_patch = True
    rng = random.Random(seed)
    for _ in range(6):
        p = random_poset(rng, 5)
        lat = _lattice_of_upsets(p.labels, p.lower_set_masks(bound))
        good, _result, _iso = roundtrip_check(lat, bound)
        ok_round = ok_round and good
        res = priestley_of_dlat(lat, bound)
        lhs, rhs, _w = check_patch_characterization(
            res.space, SetFamily(res.n_points, res.spectrum.basics), bound)
        ok_patch = ok_patch and lhs and rhs
    record("roundtrip-random", ok_round)
    record("patch-characterization", ok_patch)
    msl3 = c3.with_kind("meet-semilattice")
    fr = free_boolean(msl3, "msl")
    unit = fr.unit_morphism("meet-hom")
    good, _ = recognize_free_boolean(unit, "msl")
    ident = StructureMorphism(d4, d4, range(d4.n), "meet-hom")
    bad, _ = recognize_free_boolean(ident, "msl")
    record("recognition", good and not bad)
    okup, _ = universal_property_check(free_boolean(a2, "poset-flat"), 2)
    record("universal-property-a2-flat", okup)
    ok_pull = True
    for rows in all_preorders(3):
        pre = Preorder(["x0", "x1", "x2"], rows)
        if not pre.is_antisymmetric():
            continue
        ok_pull = ok_pull and check_frame_pullback(alexandrov_space(pre), bound)
    record("frame-pullback-3pt", ok_pull)
    ok = all(c["ok"] for c in checks)
    return {"command": "selftest", "seed": seed, "checks": checks, "ok": ok}


def run_command(command: str, files: list[str], bound: int, oracle_bound: int,
                seed: int) -> tuple[int, dict, object]:
    """Execute a command; returns (exit code, report, DOT-renderable object)."""
    if command == "selftest":
        report = selftest(seed, bound)
        return (0 if report["ok"] else 1), report, None
    if len(files) != 1:
        raise InputFormatError(f"{command} expects exactly one input file")
    if command == "recognize":
        f = load_morphism(files[0])
        duality = next((k for k in _ALGEBRA_KINDS
                        if MODEL_CLASSES[k].hom_kind == f.kind), None)
        if duality is None:
            raise KindMismatch(
                f"recognition needs a meet-hom, lattice-hom, or disjunctive-hom, "
                f"got {f.kind}")
        ok, witness = recognize_free_boolean(f, duality)
        report = {"command": command, "duality": duality, "ok": ok,
                  "witness": witness}
        return (0 if ok else 1), report, None

    s = load_structure(files[0])
    if command == "validate":
        report = {"command": command, "ok": True, "elements": s.n,
                  "kind": s.kind,
                  "document": export_structure_document(s)}
        return 0, report, s.base
    if command == "classify":
        report = {"command": command, "kind": s.kind,
                  "top": None if s.top is None else s.labels[s.top],
                  "bottom": None if s.bottom is None else s.labels[s.bottom],
                  "is-lattice": s.is_lattice()}
        return 0, report, s
    if command == "spectrum":
        duality = _strongest(s, DUALITY_KINDS, duality_class)
        res = spectrum_for(s, duality, bound)
        report = {"command": command, **_spectrum_report(s, res, duality)}
        return 0, report, res.space
    if command == "priestley":
        res = priestley_of_dlat(s, bound)
        pr = priestley_check(res.space)
        report = {"command": command, **_spectrum_report(s, res, "dlat"),
                  "priestley": pr.to_dict()}
        return 0, report, res.space
    if command == "dualize-back":
        ps = _discrete_priestley(s, bound)
        d = dlat_of_priestley(ps)
        report = {"command": command, "size": d.n, "kind": d.kind,
                  "elements": list(d.labels)}
        return 0, report, d
    if command == "free-bool":
        kind = _strongest(s, ("poset-monotone", "msl", "dlat", "ddlat"))
        fr = free_boolean(s, kind, bound)
        report = {"command": command, **_free_report(fr)}
        return 0, report, fr if fr.size <= 64 else None
    if command == "free-dlat":
        kind = _strongest(s, ("msl", "ddlat"))
        if kind is None:
            raise KindMismatch("free-dlat needs a meet-semilattice or stronger")
        # the per-class wrappers are the names perfbench traces
        fr = (free_dlat_on_msl if kind == "msl" else free_dlat_on_ddlat)(s, bound)
        report = {"command": command, **_free_report(fr),
                  "elements": [sorted(fr.spectrum.labels[k] for k in bits(m))
                               for m in fr.element_masks]}
        return 0, report, fr
    if command == "free-frame":
        fr = free_frame_on_poset(s.base, bound)
        sup = frame_supercompacts(fr)
        report = {"command": command, "size": fr.size,
                  "supercompact-count": len(sup),
                  "unit": {s.labels[i]:
                           sorted(s.labels[k] for k in bits(fr.unit_masks[i]))
                           for i in range(s.n)}}
        return 0, report, fr
    if command == "oracle":
        orc = thm22_oracle(s, oracle_bound)
        fr = free_boolean(s, "dlat", bound)
        pins = {orc.unit[i]: fr.unit[i] for i in range(s.n)}
        match = (fr.size == orc.structure.n
                 and structure_isomorphism(orc.structure, fr.structure, pins)
                 is not None)
        report = {"command": command, "frame-size": len(orc.family),
                  "unit": {s.labels[i]: f"m{orc.unit[i]}" for i in range(s.n)},
                  "matches-free": match}
        return (0 if match else 1), report, orc.structure
    if command == "roundtrip":
        ok, result, iso = roundtrip_check(s, bound)
        report = {"command": command, "ok": ok, "size": s.n,
                  "clopen-uppers": result.n}
        return (0 if ok else 1), report, result
    if command == "extimage":
        ps = _discrete_priestley(s, bound)
        report = {"command": command}
        for variant in ("coherent-poset", "msl"):
            ok, witness = extended_image_check(ps, variant)
            report[variant] = {"ok": ok, "witness": witness}
        return (0 if report["coherent-poset"]["ok"] else 1), report, ps
    if command == "check-pullback":
        space = alexandrov_space(Preorder.from_poset(s.base), bound)
        ok = check_frame_pullback(space, bound)
        report = {"command": command, "ok": ok, "opens": count_upper_sets(space.up)}
        return (0 if ok else 1), report, space
    raise InputFormatError(f"unknown command {command!r}")


def _text_lines(value, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for k in sorted(value):
            lines.extend(_text_lines(value[k], f"{prefix}{k}."))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{prefix[:-1]}: {', '.join(str(v) for v in value)}"]
        lines = []
        for i, v in enumerate(value):
            lines.extend(_text_lines(v, f"{prefix}{i}."))
        return lines
    return [f"{prefix[:-1]}: {value}"]


def render_report(report: dict, fmt: str, dot_obj) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return "\n".join(_text_lines(report)) + "\n"
    if fmt == "dot":
        if dot_obj is None:
            raise InputFormatError("this command has no graph output")
        return export_dot(dot_obj)
    raise InputFormatError(f"unknown format {fmt!r}")


def _nonnegative(value: int, name: str) -> int:
    if value < 0:
        raise InputFormatError(f"{name} must be >= 0, got {value}")
    return value


def _resolve_bound(arg: int | None) -> int:
    if arg is not None:
        return _nonnegative(arg, "--bound")
    env = os.environ.get("ORDUA_BOUND")
    if env is None:
        return DEFAULT_ENUMERATION_BOUND
    try:
        value = int(env)
    except ValueError:
        raise InputFormatError(f"ORDUA_BOUND must be an integer, got {env!r}")
    return _nonnegative(value, "ORDUA_BOUND")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordua",
        description="Exact spectra, dualities, and free constructions "
                    "for finite ordered structures.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("files", nargs="*",
                        help="structure/morphism documents or built-in names")
    parser.add_argument("--bound", type=int, default=None,
                        help="carrier bound for exponential enumerations "
                             "(default: ORDUA_BOUND or 12)")
    parser.add_argument("--oracle-bound", type=int, default=3,
                        help="carrier bound for the presented-frame oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for selftest randomness")
    parser.add_argument("--format", choices=("json", "dot", "text"),
                        default="json")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)
    try:
        bound = _resolve_bound(args.bound)
        oracle_bound = _nonnegative(args.oracle_bound, "--oracle-bound")
        code, report, dot_obj = run_command(
            args.command, args.files, bound, oracle_bound, args.seed)
        text = render_report(report, args.format, dot_obj)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except OrduaError as e:
        print(f"ordua: error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"ordua: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
