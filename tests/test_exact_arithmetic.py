"""The package promises exact arithmetic: no floating point anywhere.

This walks the syntax tree of every module in src/loopbraid and fails on
the constructs that produce floats: float or complex literals, float() and
complex() calls, the float-valued functions of math, and true division
whose left operand is an int literal (exact only while the divisor happens
to be a Fraction; write Fraction(1) / x instead)."""

import ast
from pathlib import Path

import loopbraid

SRC = Path(loopbraid.__file__).resolve().parent
FLOAT_MATH = {"sqrt", "exp", "pow", "fsum", "isclose"}


def _float_math(name):
    return name in FLOAT_MATH or name.startswith("log")


def _int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def float_sites(source, filename="<string>"):
    """(line, description) for every floating-point construct in source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((line, "%s literal" % type(node.value).__name__))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "complex"):
            found.append((line, "%s() call" % node.func.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and _float_math(node.attr):
            found.append((line, "math.%s" % node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((line, "math.%s" % a.name) for a in node.names if _float_math(a.name))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                and _int_literal(node.left):
            found.append((line, "int literal / ..."))
    return sorted(found)


def test_package_has_no_floating_point():
    sites = ["%s:%d: %s" % (path.name, line, what)
             for path in sorted(SRC.glob("*.py"))
             for line, what in float_sites(path.read_text(encoding="utf-8"), str(path))]
    assert sites == []


def test_float_sites_are_detected():
    bad = ("import math\nfrom math import log2\n"
           "a = 0.5\nb = 2j\nc = float(3)\nd = complex(1, 2)\n"
           "e = math.sqrt(2)\nf = math.log(3)\ng = math.fsum([1])\n"
           "h = math.isclose(1, 2)\ni = math.exp(1)\nj = math.pow(2, 3)\n"
           "k = 1 / x\nl = -1 / x\n")
    kinds = [what for _, what in float_sites(bad)]
    assert kinds == ["math.log2", "float literal", "complex literal", "float() call",
                     "complex() call", "math.sqrt", "math.log", "math.fsum",
                     "math.isclose", "math.exp", "math.pow", "int literal / ...",
                     "int literal / ..."]
    exact = ("from fractions import Fraction\nimport math\n"
             "a = Fraction(1) / x\nb = 7 // 2\nc = math.gcd(4, 6)\nd = x / 2\n"
             "e = math.lcm(2, 3)\nf = True / x\n")
    assert float_sites(exact) == []
