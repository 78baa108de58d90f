"""Every name a module of the package imports is used in that module, and
every private top-level name of a module is read somewhere in the package.

The package ``__init__`` is exempt from the import check: its imports are
the public surface.
"""

import ast
import tracemalloc
from pathlib import Path

import pytest

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
    """Every fresh interpreter compiles the whole package (bytecode is not
    cached where PYTHONDONTWRITEBYTECODE is set), and compiling a long module
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
