"""Checks over the package source itself."""

import ast
from pathlib import Path

import torsiondeg

SOURCES = sorted(Path(torsiondeg.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"families.py", "gl2.py", "cli.py"}


def test_no_assert_statements_in_the_package():
    # invariant checks must survive python -O, which strips asserts
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
