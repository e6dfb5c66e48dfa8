"""Every check in the package must survive python -O, which strips assert
statements: this walks the syntax tree of every module in src/loopbraid and
fails on any assert.  Bad input raises InvalidParameters; a broken internal
invariant raises another LoopBraidError."""

import ast
from pathlib import Path

import loopbraid

SRC = Path(loopbraid.__file__).resolve().parent


def assert_lines(source, filename="<string>"):
    """Line numbers of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source, filename))
                  if isinstance(node, ast.Assert))


def test_package_has_no_assert():
    sites = ["%s:%d" % (path.name, line)
             for path in sorted(SRC.glob("*.py"))
             for line in assert_lines(path.read_text(encoding="utf-8"), str(path))]
    assert sites == []


def test_assert_lines_are_detected():
    assert assert_lines("x = 1\nassert x\nif x:\n    assert x, 'why'\n") == [2, 4]
    assert assert_lines('"""assert x"""\n# assert x\nx = "assert"\n') == []
