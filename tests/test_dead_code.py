"""Every definition in src/cn3 has a caller in the program.

Code that only tests call belongs under tests/. The check is textual: a
function, class, method or property name must appear as a whole word in
src/, scripts/ or perfbench/ somewhere other than its own def line.
Dunder methods are called by the interpreter and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_definition_has_a_caller():
    lines = {path: path.read_text(encoding="utf-8").splitlines()
             for d in PROGRAM_DIRS for path in (ROOT / d).rglob("*.py")}
    uncalled = []
    for path in sorted((ROOT / "src" / "cn3").glob("*.py")):
        for name, lineno in definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for other, text in lines.items()
                       for i, line in enumerate(text, start=1)
                       if (other, i) != (path, lineno)):
                uncalled.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert uncalled == []
