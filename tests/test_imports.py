"""Every name a module of the package imports is used in that module, and
every private top-level name of a module is read somewhere in the package.
The brute-force references in tests/conftest.py read no meet or join of the
library's structures.

The package ``__init__`` is exempt from the import check. Its public
surface is pinned below: the names it serves lazily, and which layers each
CLI command loads.
"""

import ast
import importlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import package_env
import ordua

PACKAGE = sorted(Path(ordua.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_import():
    src = "from a import b, c\nimport d.e\nimport f as g\nprint(b, d.e)\n"
    assert unused_imports(src) == ["c (line 1)", "g (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The top-level _private functions, classes and constants of the modules
    in sources (module name -> source) that no expression in any of them reads."""
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_the_check_sees_an_unread_private_name():
    sources = {"a": "_X = 1\n_Y: int = 2\ndef _f(): return _X\nclass _C: pass\n",
               "b": "from a import _f\nimport a\nprint(_f(), a._C)\n"}
    assert unread_private_names(sources) == ["a._Y"]


def test_package_reads_every_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


MAX_MODULE_LINES = 989


def test_no_module_exceeds_the_line_budget():
    """Every fresh interpreter compiles each module it imports (bytecode is
    not cached where PYTHONDONTWRITEBYTECODE is set), and compiling a long module
    raises the peak RSS: structures.py costs about 3 MB. That peak follows
    the code (tokens and syntax nodes), not its comments or docstrings, and
    it jumps at certain sizes: 15 more lines of code in structures.py raise
    its compile peak (tracemalloc) from 2.87 to 3.38 MB. So the cap is a
    budget for code, not for comments: no module may grow past 989 lines,
    code added near the cap should be paid for with code taken out, and a
    module that would outgrow it is split."""
    sizes = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE}
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_LINES} == {}


MAX_COMPILE_PEAK_MB = 3.0


def compile_peak_mb(source: str, filename: str) -> float:
    """The peak of memory traced while compiling source, above what was
    traced before it, in MB of 2^20 bytes. Tracing already on (``-X
    tracemalloc``) is kept on; only tracing started here is stopped."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compile(source, filename, "exec")
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def test_the_compile_peak_check_sees_a_large_module():
    assert compile_peak_mb("x = 1\n", "small.py") < 0.1
    assert compile_peak_mb("x = [\n" + "f(1, 2),\n" * 2_000 + "]\n", "big.py") > 3.0


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_exceeds_the_compile_peak_budget(path):
    """A fresh interpreter compiles every module it imports, and the largest
    compile peak adds to the process's peak RSS (structures.py, the largest,
    takes about 2.7 MB; the budget and the large module above were measured
    on Python 3.11.7, and other versions compile with other peaks). The line
    budget above bounds it only roughly, since the peak follows the code, not
    the comments; this bounds the peak itself, so its growth shows here
    before it shows as peak RSS in a benchmark."""
    source = path.read_text(encoding="utf-8")
    assert compile_peak_mb(source, str(path)) <= MAX_COMPILE_PEAK_MB


LIBRARY_OPERATIONS = {"meet", "join", "join_of"}


def library_operation_reads(source: str) -> list[str]:
    """function.attribute for each read of a meet, join or join_of attribute
    inside a top-level brute_* function of source."""
    return [f"{node.name}.{sub.attr}" for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("brute_")
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr in LIBRARY_OPERATIONS]


def test_the_check_sees_a_library_meet_or_join():
    src = ("def brute_a(s): return s.meet(0, 1), s.join[0][1]\n"
           "def brute_b(s): return brute_join(s, 0, 1)\n"
           "def helper(s): return s.join_of([])\n")
    assert library_operation_reads(src) == ["brute_a.meet", "brute_a.join"]


def test_brute_references_read_no_library_meet_or_join():
    """The references stay independent of the rows the library reads meets
    and joins off: they use brute_tables, brute_meet, brute_join and
    brute_join_of, all written from the order alone."""
    source = (Path(__file__).parent / "conftest.py").read_text(encoding="utf-8")
    assert library_operation_reads(source) == []


# submodule -> the public names ordua serves from it
PUBLIC_SURFACE = {
    "errors": [
        "AntisymmetryViolation", "CarrierMismatch", "CarrierTooLarge",
        "DuplicateLabel", "InputFormatError", "KindHintMismatch", "KindMismatch",
        "NotAFilterImage", "NotInjective", "NotPriestley", "NotT0",
        "OracleBoundExceeded", "OrduaError", "UnknownLabel"],
    "structures": [
        "DEFAULT_ENUMERATION_BOUND", "KINDS", "KIND_RANK", "MORPHISM_KINDS",
        "Poset", "SetFamily", "Structure", "StructureMorphism", "Subset",
        "canonical_form", "chain_structure", "classify", "compose",
        "disjunctive_filters", "disjunctively_compact_elements",
        "enumerate_homomorphisms", "filters", "inclusion_rows",
        "indecomposable_elements", "is_coherent_poset", "is_flat_map",
        "is_homomorphism", "order_isomorphism", "prime_filters",
        "structure_isomorphism", "validate_poset"],
    "setlattices": ["powerset_structure", "structure_from_closed_masks"],
    "spaces": [
        "FiniteSpace", "Preorder", "PreorderedSpace", "PriestleyReport",
        "alexandrov_space", "check_frame_pullback", "check_patch_characterization",
        "generate_topology", "patch_space", "preorder_coreflection",
        "priestley_boolean_algebra", "priestley_check", "specialization_preorder",
        "upper_open_reduct", "weakly_indecomposable_clopen_uppers"],
    "spectra": ["Spectrum", "inverse_image_map", "spectrum"],
    "dualities": [
        "DUALITY_KINDS", "DualityResult", "SpaceMap", "coherent_of_priestley",
        "ddlat_spectrum", "dlat_of_priestley", "dual_morphism",
        "extended_image_check", "msl_spectrum", "poset_spectrum",
        "priestley_of_coherent", "priestley_of_dlat", "roundtrip_check",
        "spectrum_for", "stone_spectrum", "upper_elements"],
    "free": [
        "FREE_KINDS", "FreeResult", "OracleResult", "free_boolean",
        "free_dlat_on_ddlat", "free_dlat_on_msl", "free_frame_on_poset",
        "frame_supercompacts", "induced_boolean_hom", "is_class_morphism",
        "recognize_free_boolean", "supercompact_elements", "thm22_oracle",
        "universal_property_check"],
}


def test_the_namespace_serves_every_public_name_from_its_module():
    names = sorted([*PUBLIC_SURFACE, *(n for ns in PUBLIC_SURFACE.values() for n in ns)])
    assert len(names) == len(set(names)) == 97
    assert sorted(ordua.__all__) == names
    for module, exported in PUBLIC_SURFACE.items():
        source = importlib.import_module(f"ordua.{module}")
        assert getattr(ordua, module) is source
        for name in exported:
            assert getattr(ordua, name) is getattr(source, name), name
    star: dict = {}
    exec("from ordua import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    assert set(names) <= set(dir(ordua))
    assert ordua.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match=r"^module 'ordua' has no attribute 'nope'$"):
        ordua.nope
    with pytest.raises(ImportError):
        exec("from ordua import nope", {})


def loaded_after(code: str, *argv: str) -> dict:
    """What a fresh interpreter reports on stderr's last line after running
    code, which must print a JSON object there. -S keeps out the modules that
    site's .pth hooks may import (typing among them)."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, env=package_env())
    return json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_package_runs_no_submodule():
    code = ("import json, sys; import ordua; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('ordua'))), file=sys.stderr)")
    assert loaded_after(code) == ["ordua"]


RUN_CLI = """
import json, runpy, sys
typing_at_start = "typing" in sys.modules
sys.argv, code = ["ordua", *sys.argv[1:]], None
try:
    runpy.run_module("ordua.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps({"code": code, "typing": "typing" in sys.modules and not typing_at_start,
                  "layers": sorted(m[6:] for m in sys.modules if m.startswith("ordua."))}),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, unused", [
    (["classify", "C3"], {"dualities", "free", "spaces", "corpus"}),
    (["spectrum", "D4"], {"free", "corpus"}),
    (["free-bool", "A2"], {"dualities", "spaces", "corpus"}),
    (["classify", "C3", "--format", "dot"], {"dualities", "free", "spaces", "corpus"}),
], ids=["classify", "spectrum", "free-bool", "classify-dot"])
def test_a_command_loads_only_the_layers_it_runs(argv, unused):
    got = loaded_after(RUN_CLI, *argv)
    assert got["code"] == 0 and got["typing"] is False
    assert {"errors", "structures"} <= set(got["layers"])
    assert unused.isdisjoint(got["layers"]), got["layers"]
