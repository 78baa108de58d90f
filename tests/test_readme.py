"""The README's library example runs, and each expression line prints the
value commented on it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert found, "no python block under '## Library example'"
    return found.group(1)


def test_readme_example_prints_its_commented_values():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        line = lines[node.end_lineno - 1]
        assert "#" in line, f"expression without a commented value: {line!r}"
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert repr(value) == line.split("#", 1)[1].strip(), line
        checked += 1
    assert checked >= 5
