import importlib
import itertools
import json
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import brute_upper_sets, package_env
import ordua
from ordua import structures
from ordua.cli import (
    _BUILTIN_SPECS,
    COMMANDS,
    _spectrum_report,
    builtin_structure,
    export_dot,
    export_structure_document,
    main,
    render_report,
    run_command,
)
from ordua.corpus import all_posets_up_to, random_poset
from ordua.dualities import poset_spectrum, priestley_of_dlat
from ordua.errors import InputFormatError
from ordua.setlattices import powerset_structure
from ordua.structures import KIND_RANK, KINDS, classify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------- happy paths

def test_classify_builtin(capsys):
    code, out, _ = run(capsys, "classify", "C3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "distributive-lattice"
    assert doc["is-lattice"] is True


def test_validate_emits_canonical_document(capsys, tmp_path):
    src = write_json(tmp_path, "s.json", {
        "elements": ["b", "a"],
        "leq": [["b", "a"]],
    })
    code, out, _ = run(capsys, "validate", src)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["document"]["elements"] == ["a", "b"]
    assert doc["document"]["leq"] == [["b", "a"]]
    # feeding the canonical document back reproduces it byte for byte
    again = write_json(tmp_path, "s2.json", doc["document"])
    code, out2, _ = run(capsys, "validate", again)
    assert code == 0 and out2 == out


def test_spectrum_of_builtin(capsys):
    code, out, _ = run(capsys, "spectrum", "C3")
    assert code == 0
    doc = json.loads(out)
    assert doc["duality"] == "dlat"
    assert len(doc["points"]) == 2


def test_stone_opens_are_the_lattice_elements():
    # the Stone opens, the up-sets of the prime filters under inclusion, are
    # the down-sets of the join-irreducibles: one per element (Birkhoff)
    lattices = [s for s in map(classify, all_posets_up_to(5))
                if s.rank() >= KIND_RANK["distributive-lattice"]]
    assert len(lattices) == 1 + 1 + 1 + 2 + 3  # on 1..5 elements (OEIS A006982)
    for s in lattices + [powerset_structure(k) for k in range(5)]:
        res = priestley_of_dlat(s)
        listed = len(brute_upper_sets(res.spectrum.order))
        assert _spectrum_report(s, res, "dlat")["stone-opens"] == listed == s.n


def test_spectrum_counts_the_a_opens_without_listing_them(capsys, monkeypatch, tmp_path):
    """On a poset, `spectrum` prints as A-opens the number of up-sets of the
    filter inclusion order, counted with no module listing up-sets."""
    rng = random.Random(4)
    posets = [random_poset(rng, rng.randint(2, 8), rng.random() * 0.6) for _ in range(8)]
    posets.append(structures.Poset([f"a{i}" for i in range(18)], [1 << i for i in range(18)]))
    cases = []
    for k, p in enumerate(posets):
        if classify(p).kind != "poset":
            continue
        order = poset_spectrum(p, 18).spectrum.order
        want = len(brute_upper_sets(order)) if p.n <= 8 else 1 << 18
        doc = {"elements": list(p.labels),
               "leq": [[p.labels[i], p.labels[j]] for i, row in enumerate(p.up)
                       for j in structures.bits(row) if i != j]}
        path = write_json(tmp_path, f"p{k}.json", doc)
        code, out, _ = run(capsys, "spectrum", path, "--bound", "18")
        assert code == 0 and json.loads(out)["A-opens"] == want
        cases.append((path, out))
    assert len(cases) >= 5

    def refuse(*args, **kwargs):
        raise AssertionError("listed up-sets")

    for info in pkgutil.iter_modules(ordua.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"ordua.{info.name}")
            if hasattr(module, "upper_sets"):
                monkeypatch.setattr(module, "upper_sets", refuse)
    for path, out in cases:
        assert run(capsys, "spectrum", path, "--bound", "18") == (0, out, "")


def test_free_bool_reports_frozen_sizes(capsys):
    code, out, _ = run(capsys, "free-bool", "A2")
    assert code == 0
    assert json.loads(out)["size"] == 16


def test_free_dlat_on_m3(capsys):
    code, out, _ = run(capsys, "free-dlat", "M3")
    assert code == 0
    assert json.loads(out)["size"] == 10


def test_free_frame_on_a3(capsys):
    code, out, _ = run(capsys, "free-frame", "A3")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 8 and doc["supercompact-count"] == 3


def test_oracle_agrees_with_free(capsys):
    code, out, _ = run(capsys, "oracle", "C4", "--oracle-bound", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["frame-size"] == 8
    assert doc["matches-free"] is True


def test_roundtrip_builtin(capsys):
    code, out, _ = run(capsys, "roundtrip", "D4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_priestley_and_dualize_back(capsys):
    code, out, _ = run(capsys, "priestley", "C4")
    assert code == 0
    assert json.loads(out)["priestley"]["is-priestley"] is True
    # the chain as a discrete ordered space has five upper sets
    code, out, _ = run(capsys, "dualize-back", "C4")
    assert code == 0
    assert json.loads(out)["size"] == 5


def test_extimage_of_builtin(capsys):
    code, out, _ = run(capsys, "extimage", "A2")
    assert code == 0
    doc = json.loads(out)
    assert doc["coherent-poset"]["ok"] is True
    assert doc["msl"]["ok"] is False


def test_check_pullback(capsys):
    code, out, _ = run(capsys, "check-pullback", "C4")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("build,message", [
    (lambda: export_dot(object()), "no DOT rendering for object"),
    (lambda: run_command("bogus", ["C2"], 12, 4, 0), "unknown command 'bogus'"),
    (lambda: render_report({"command": "classify"}, "yaml", None), "unknown format 'yaml'"),
], ids=["dot-object", "command", "format"])
def test_library_entry_points_reject_unknown_requests(build, message):
    # main's argument parser never lets these through, so call them directly
    with pytest.raises(InputFormatError) as err:
        build()
    assert type(err.value) is InputFormatError and str(err.value) == message


def test_selftest_is_deterministic(capsys):
    code, out1, _ = run(capsys, "selftest", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "selftest", "--seed", "7")
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    assert all(c["ok"] for c in doc["checks"])


# ------------------------------------------------------------- recognition

def test_recognize_accepts_a_unit(capsys, tmp_path):
    source = {"elements": ["0", "a", "1"], "leq": [["0", "a"], ["a", "1"]],
              "kind-hint": "distributive-lattice"}
    target = {"elements": ["e", "p", "q", "t"],
              "leq": [["e", "p"], ["e", "q"], ["p", "t"], ["q", "t"]],
              "kind-hint": "boolean-algebra"}
    spath = write_json(tmp_path, "src.json", source)
    tpath = write_json(tmp_path, "tgt.json", target)
    mpath = write_json(tmp_path, "m.json", {
        "source": "src.json", "target": "tgt.json",
        "map": {"0": "e", "a": "p", "1": "t"},
        "kind": "lattice-hom",
    })
    code, out, _ = run(capsys, "recognize", mpath)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_recognize_rejects_a_non_unit(capsys, tmp_path):
    source = {"elements": ["0", "1"], "leq": [["0", "1"]],
              "kind-hint": "distributive-lattice"}
    target = {"elements": ["e", "p", "q", "t"],
              "leq": [["e", "p"], ["e", "q"], ["p", "t"], ["q", "t"]],
              "kind-hint": "boolean-algebra"}
    spath = write_json(tmp_path, "src.json", source)
    tpath = write_json(tmp_path, "tgt.json", target)
    mpath = write_json(tmp_path, "m.json", {
        "source": "src.json", "target": "tgt.json",
        "map": {"0": "e", "1": "t"},
        "kind": "lattice-hom",
    })
    code, out, _ = run(capsys, "recognize", mpath)
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("doc", [5, None, "source target map kind",
                                 ["source", "target", "map", "kind"]],
                         ids=["number", "null", "string", "list"])
def test_recognize_rejects_a_document_that_is_not_an_object(capsys, tmp_path, doc):
    mpath = write_json(tmp_path, "m.json", doc)
    code, out, err = run(capsys, "recognize", mpath)
    assert (code, out) == (2, "")
    assert err == "ordua: error: morphism document must be a JSON object\n"


@pytest.mark.parametrize("source", ["A2", "A3"])
@pytest.mark.parametrize("kind", ["meet-hom", "lattice-hom", "disjunctive-hom"])
def test_recognize_rejects_a_source_without_top(capsys, tmp_path, source, kind):
    labels = _BUILTIN_SPECS[source][0]
    mpath = write_json(tmp_path, "m.json", {
        "source": source, "target": "C2", "kind": kind,
        "map": {x: "1" for x in labels}})
    code, out, err = run(capsys, "recognize", mpath)
    assert (code, out) == (2, "")
    assert err.startswith("ordua: error:") and "needs" in err


def test_recognize_fuzz_never_escapes(capsys, tmp_path):
    # every ordered pair of built-ins, each recognizable kind, two seeded
    # label maps: an input the command cannot use is exit 2, not a traceback
    rng = random.Random(2)
    mpath = tmp_path / "m.json"
    for source, target in itertools.product(_BUILTIN_SPECS, repeat=2):
        for kind in ("meet-hom", "lattice-hom", "disjunctive-hom"):
            for _ in range(2):
                labels = _BUILTIN_SPECS[target][0]
                mpath.write_text(json.dumps({
                    "source": source, "target": target, "kind": kind,
                    "map": {x: rng.choice(labels) for x in _BUILTIN_SPECS[source][0]}}))
                code, _, err = run(capsys, "recognize", str(mpath))
                assert code in (0, 1, 2), (source, target, kind)
                if code == 2:
                    assert err.startswith("ordua: error:"), (source, target, kind)


# ------------------------------------------------------ kind-hinted inputs

# The classes the CLI takes for a structure of each kind: spectrum's
# duality, free-bool's model class and free-dlat's (None: it exits 2).
CLASS_FOR_KIND = {
    "poset": ("poset", "poset-monotone", None),
    "meet-semilattice": ("msl", "msl", "dlat-on-msl"),
    "dd-lattice": ("ddlat", "ddlat", "dlat-on-ddlat"),
    "distributive-lattice": ("dlat", "dlat", "dlat-on-ddlat"),
    "boolean-algebra": ("dlat", "dlat", "dlat-on-ddlat"),
}


def hinted_builtins(tmp_path) -> list[tuple[str, str]]:
    """(hint, path) of a document for every built-in with every kind-hint up
    to its classified kind."""
    docs = []
    for name, (elements, pairs) in _BUILTIN_SPECS.items():
        for hint in KINDS[:builtin_structure(name).rank() + 1]:
            docs.append((hint, write_json(tmp_path, f"{name}-{hint}.json", {
                "elements": elements, "leq": [list(p) for p in pairs],
                "kind-hint": hint})))
    return docs


def test_the_class_taken_for_each_kind_hint(capsys, tmp_path):
    docs = hinted_builtins(tmp_path)
    assert len(docs) == 29
    for hint, path in docs:
        duality, free_class, dlat_class = CLASS_FOR_KIND[hint]
        code, out, _ = run(capsys, "spectrum", path)
        assert (code, json.loads(out)["duality"]) == (0, duality), path
        code, out, _ = run(capsys, "free-bool", path)
        assert (code, json.loads(out)["model-class"]) == (0, free_class), path
        code, out, err = run(capsys, "free-dlat", path)
        if dlat_class is None:
            assert (code, out, err) == (
                2, "", "ordua: error: free-dlat needs a meet-semilattice or stronger\n"), path
        else:
            assert (code, json.loads(out)["model-class"]) == (0, dlat_class), path


def test_kind_hinted_runs_never_escape(capsys, tmp_path):
    # every structure command in every format on every kind-hinted built-in:
    # a failure is an exit 2 or 3 with only an error line, never a traceback
    runs = 0
    for hint, path in hinted_builtins(tmp_path):
        for command in COMMANDS:
            if command in ("selftest", "recognize"):
                continue
            for fmt in ("json", "dot", "text"):
                code, out, err = run(capsys, command, path, "--format", fmt)
                assert code in (0, 1, 2, 3), (command, path, fmt)
                if code in (2, 3):
                    assert out == "" and err.startswith("ordua: error:"), (command, path, fmt)
                else:
                    assert err == "", (command, path, fmt)
                runs += 1
    assert runs == 1044


# ----------------------------------------------------------- error handling

def test_cycle_is_an_input_error(capsys, tmp_path):
    src = write_json(tmp_path, "bad.json", {
        "elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]})
    code, _, err = run(capsys, "classify", src)
    assert code == 2 and "error" in err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2 and "error" in err


MALFORMED = {
    "not-utf8": b"\xff\xfe",
    "long-integer": b'{"elements": ' + b"7" * 5000 + b', "leq": []}',
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("command", ["validate", "recognize"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_undecodable_document_is_an_input_error(capsys, tmp_path, name, command):
    # as a structure (validate) and as a morphism document (recognize); the
    # long integer is over the interpreter's default int-to-str digit limit
    path = tmp_path / "doc.json"
    path.write_bytes(MALFORMED[name])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, command, str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith(f"ordua: error: invalid JSON in {path}: ")


def test_validate_fuzz_never_escapes(capsys, tmp_path):
    # seeded random byte strings, raw or from JSON's alphabet: validate exits
    # 0 or prints an error, and any other exception would escape main
    rng = random.Random(5)
    path = tmp_path / "doc.json"
    alphabet = b'[]{}",:0123456789.eE-+ aeflnrstu\\\xc3\xa9\xff'
    for k in range(300):
        size = rng.randint(0, 40)
        data = (rng.randbytes(size) if k % 2 else
                bytes(rng.choice(alphabet) for _ in range(size)))
        path.write_bytes(data)
        code, out, err = run(capsys, "validate", str(path))
        assert code in (0, 1, 2, 3), data
        if code:
            assert out == "" and err.startswith("ordua: error:"), data


def test_kind_hint_upgrade_is_rejected(capsys, tmp_path):
    src = write_json(tmp_path, "hinted.json", {
        "elements": ["p", "q"], "leq": [],
        "kind-hint": "distributive-lattice"})
    code, _, err = run(capsys, "classify", src)
    assert code == 2 and "error" in err


def test_oracle_bound_exceeded(capsys):
    code, _, err = run(capsys, "oracle", "D4")  # default oracle bound is 3
    assert code == 3 and "error" in err


def test_free_dlat_needs_a_semilattice(capsys):
    code, _, err = run(capsys, "free-dlat", "A2")
    assert code == 2 and "error" in err


def test_bound_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("ORDUA_BOUND", "2")
    code, _, err = run(capsys, "spectrum", "A3")  # filter enumeration needs 3
    assert code == 3 and "error" in err
    monkeypatch.setenv("ORDUA_BOUND", "nonsense")
    code, _, err = run(capsys, "spectrum", "A3")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command", ["spectrum", "classify", "oracle"])
def test_negative_bounds_are_malformed_input(capsys, monkeypatch, command):
    # each source of a bound is checked before any command runs, and the
    # error names it
    monkeypatch.delenv("ORDUA_BOUND", raising=False)
    for flag in ("--bound", "--oracle-bound"):
        code, out, err = run(capsys, command, "C3", flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"ordua: error: {flag} must be >= 0, got -1\n"
    monkeypatch.setenv("ORDUA_BOUND", "-3")
    code, out, err = run(capsys, command, "C3")
    assert (code, out, err) == (2, "", "ordua: error: ORDUA_BOUND must be >= 0, got -3\n")
    # an explicit bound overrides the environment, and 0 is a bound
    assert run(capsys, command, "C3", "--bound", "12")[0] == 0
    monkeypatch.setenv("ORDUA_BOUND", "0")
    assert run(capsys, "classify", "C3")[0] == 0


def test_explicit_bound_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("ORDUA_BOUND", "2")
    code, out, _ = run(capsys, "spectrum", "A3", "--bound", "12")
    assert code == 0


def test_tripped_free_dlat_cap_exits_without_building(tmp_path):
    # the free lattice on the 32-element Boolean algebra as a meet-semilattice
    # has 7,581 elements; the cap must trip before they are all built
    elements = [f"s{m}" for m in range(32)]
    leq = [[f"s{a}", f"s{b}"] for a in range(32) for b in range(32)
           if a != b and a & ~b == 0]
    src = write_json(tmp_path, "b5.json", {
        "elements": elements, "leq": leq, "kind-hint": "meet-semilattice"})
    proc = subprocess.run(
        [sys.executable, "-m", "ordua", "free-dlat", src, "--bound", "32"],
        capture_output=True, text=True, env=package_env(), timeout=20)
    assert proc.returncode == 3
    assert proc.stderr == "ordua: error: free distributive lattice exceeds the size cap\n"


def test_free_bool_size_beyond_the_int_printing_limit_exits_3(tmp_path):
    # the 14-point antichain has 2^14 up-sets, so its free Boolean algebra
    # has 2^16384 elements, a 4,933-digit number
    src = write_json(tmp_path, "a14.json", {
        "elements": [f"a{i}" for i in range(14)], "leq": []})
    env = package_env()
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ordua", "free-bool", src, "--bound", "14"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("ordua: error: free algebra size 2^16384 has 4933 decimal "
                           "digits; the int-to-str digit limit is 4300\n")


def test_free_bool_size_beyond_the_int_printing_limit_in_process(capsys, tmp_path):
    src = write_json(tmp_path, "a14.json", {
        "elements": [f"a{i}" for i in range(14)], "leq": []})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = run(capsys, "free-bool", src, "--bound", "14")
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == (3, "", "ordua: error: free algebra size 2^16384 has 4933 decimal "
                             "digits; the int-to-str digit limit is 4300\n")


BAD_STRUCTURE_DOCS = {
    "no-leq": ({"elements": ["a"]}, 'structure document needs "elements" and "leq"'),
    "number-elements": ({"elements": [1, 2], "leq": []},
                        '"elements" must be a list of strings'),
    "one-item-pair": ({"elements": ["a", "b"], "leq": [["a"]]},
                      '"leq" must be a list of [a, b] pairs'),
    "unknown-hint": ({"elements": ["a", "b"], "leq": [], "kind-hint": "lattice"},
                     "unknown kind-hint 'lattice'"),
}


@pytest.mark.parametrize("name", BAD_STRUCTURE_DOCS)
def test_a_malformed_structure_document_is_an_input_error(capsys, tmp_path, name):
    doc, message = BAD_STRUCTURE_DOCS[name]
    path = write_json(tmp_path, "s.json", doc)
    assert run(capsys, "validate", path) == (2, "", f"ordua: error: {message}\n")


C2_IDENTITY = {"source": "C2", "target": "C2", "map": {"0": "0", "1": "1"}}
BAD_MORPHISM_DOCS = {
    "no-kind": (C2_IDENTITY, 'morphism document needs "kind"'),
    "unknown-kind": ({**C2_IDENTITY, "kind": "iso"}, "unknown morphism kind 'iso'"),
    "list-map": ({**C2_IDENTITY, "map": [0, 1], "kind": "meet-hom"},
                 '"map" must be an object of label pairs'),
    "monotone": ({**C2_IDENTITY, "kind": "monotone"},
                 "recognition needs a meet-hom, lattice-hom, or disjunctive-hom, "
                 "got monotone"),
}


@pytest.mark.parametrize("name", BAD_MORPHISM_DOCS)
def test_a_morphism_document_recognize_cannot_use_is_an_input_error(capsys, tmp_path, name):
    doc, message = BAD_MORPHISM_DOCS[name]
    path = write_json(tmp_path, "m.json", doc)
    assert run(capsys, "recognize", path) == (2, "", f"ordua: error: {message}\n")


def test_a_structure_command_takes_exactly_one_input(capsys):
    assert run(capsys, "classify", "C2", "C3") == (
        2, "", "ordua: error: classify expects exactly one input file\n")


def test_an_output_path_in_a_missing_directory_is_an_input_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "out.json")
    assert run(capsys, "classify", "C2", "-o", path) == (
        2, "", f"ordua: error: [Errno 2] No such file or directory: {path!r}\n")


@pytest.mark.parametrize("command", ["dualize-back", "extimage"])
def test_the_discrete_priestley_space_stops_at_the_bound(capsys, command):
    assert run(capsys, command, "C4", "--bound", "3") == (
        3, "", "ordua: error: carrier 4 exceeds bound 3\n")


# --------------------------------------------------------------- rendering

def test_dot_output(capsys):
    code, out, _ = run(capsys, "priestley", "C4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_dot_output_unavailable(capsys):
    code, _, err = run(capsys, "selftest", "--format", "dot")
    assert code == 2 and "error" in err


def test_text_output(capsys):
    code, out, _ = run(capsys, "classify", "C3", "--format", "text")
    assert code == 0
    assert "kind: distributive-lattice" in out


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "C3", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["kind"] == "distributive-lattice"


def console_script_target() -> tuple[str, str]:
    """The ``ordua = "<module>:<func>"`` entry of ``[project.scripts]``.

    Read with a regular expression, as ``tomllib`` is missing before 3.11.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^\[project\.scripts\]\n(?:(?!\[).*\n)*?'
                      r'ordua\s*=\s*"([\w.]+):(\w+)"', text, re.M)
    assert found, "no ordua entry in [project.scripts]"
    return found.group(1), found.group(2)


def test_console_entry_point():
    # the same lines as the wrapper pip generates for the console script
    module, func = console_script_target()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "classify", "C3"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "distributive-lattice"


def test_priestley_checks_the_topology_bound(capsys, tmp_path):
    # 2^4 has four prime filters, one more than the bound allows
    src = write_json(tmp_path, "b4.json",
                     export_structure_document(powerset_structure(4)))
    code, out, err = run(capsys, "priestley", src, "--bound", "3")
    assert (code, out) == (3, "")
    assert err == "ordua: error: topology generation needs carrier <= 3, got 4\n"
