"""CLI behaviour pinned byte for byte.

cli_golden.json maps "COMMAND NAME" to the exit code and the sha256 of
stdout and stderr of the in-process ``main([COMMAND, NAME])``, for every
command but selftest on every built-in structure; "COMMAND NAME --format
dot" and "COMMAND NAME --format text" pin the same runs in the other two
output formats, and "selftest --seed S" pins selftest for S = 0, 1, 2. The
runs happen in an empty directory, since recognize reads its argument as a
file. Record new values only for a change meant to alter what the CLI
prints or how it exits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ordua.cli import _BUILTIN_SPECS, COMMANDS, main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_command_on_every_builtin():
    expected = {f"{cmd} {name}{fmt}" for cmd in COMMANDS if cmd != "selftest"
                for name in _BUILTIN_SPECS
                for fmt in ("", " --format dot", " --format text")}
    expected |= {f"selftest --seed {seed}" for seed in range(3)}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_matches_golden(key, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(key.split())
    out = capsys.readouterr()
    assert [code, _sha(out.out), _sha(out.err)] == GOLDEN[key]
