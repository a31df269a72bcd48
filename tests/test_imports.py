"""Every module in src/ and tests/ uses each name it imports, only
subnetmine.data opens, reads or writes files, and the CLI does not load
scipy.stats."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names an import binds that the module never reads; a name listed
    in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            for alias in node.names:
                # "import a.b" binds a
                bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_unused_imports():
    source = "import json\nimport os.path\nfrom a import b, c as d\nfrom e import f\n"
    source += "__all__ = ['f']\nprint(d)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: os", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}


def file_access(source: str) -> list[str]:
    """The calls that open, read or write a file: ``open``, the ``Path``
    methods that read or write, and ``json.dump`` / ``json.load``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in FILE_CALLS:
                found.append((node.lineno, func.attr))
            elif owner == "json" and func.attr in ("dump", "load"):
                found.append((node.lineno, f"json.{func.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_file_access():
    source = "import json\nwith open(p) as fh:\n    json.dump(x, fh)\n"
    source += "p.read_text()\nq.write_bytes(b'')\njson.load(fh)\njson.dumps(x)\nf.opener()\n"
    assert file_access(source) == [
        "line 2: open", "line 3: json.dump", "line 4: read_text", "line 5: write_bytes",
        "line 6: json.load",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parts[-3:-1] == ("src", "subnetmine") and p.name != "data.py"],
    ids=lambda p: p.relative_to(ROOT).as_posix(),
)
def test_only_data_touches_files(path):
    """The file formats live in data.py: no other package module opens,
    reads or writes a file."""
    assert file_access(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_out_scipy_stats():
    """scipy.stats costs most of the start-up time; a fresh process is needed
    because other test modules import it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import subnetmine.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
