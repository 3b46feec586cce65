"""The package's one scalar rule: `errors._integer` and `errors._real`, and
no other module that judges what a number is."""

import ast
import math
import sys
from pathlib import Path

import pytest

import macloops
from macloops.errors import (_FINITE, _NONNEGATIVE, _POSITIVE, _PROBABILITY, ConfigurationError,
                             _integer, _real)

PACKAGE = Path(macloops.__file__).parent
TINY, HUGE = math.ulp(0.0), sys.float_info.max


def scalar_rule_sites(tree: ast.AST) -> list[str]:
    """The places in a module's syntax tree that import `numbers` or call
    isinstance(..., bool), alone or in a tuple of types."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sites += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "numbers":
            sites.append(f"line {node.lineno}: from {node.module} import")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(name, ast.Name) and name.id == "bool" for name in names):
                sites.append(f"line {node.lineno}: isinstance(..., bool)")
    return sites


def test_the_guard_sees_both_forms():
    source = ("import numbers\nfrom numbers import Real\n"
              "def f(x):\n    return isinstance(x, bool) or isinstance(x, (int, bool))\n")
    assert len(scalar_rule_sites(ast.parse(source))) == 4
    assert scalar_rule_sites(ast.parse("isinstance(x, int)\nimport numpy\n")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_errors_holds_the_scalar_rule(path):
    sites = scalar_rule_sites(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "errors.py":
        assert sites
    else:
        assert sites == []


@pytest.mark.parametrize("rule,inside,outside", [
    (_FINITE, [-HUGE, 0.0, HUGE], [-math.inf, math.inf, math.nan]),
    (_NONNEGATIVE, [0.0, -0.0, HUGE, 3], [-TINY, math.inf, math.nan]),
    (_POSITIVE, [TINY, 1, HUGE], [0.0, -0.0, math.inf, math.nan]),
    (_PROBABILITY, [0.0, 0.5, 1.0, 1], [-TINY, 1.0 + 2e-16, math.nan]),
], ids=["finite", "nonnegative", "positive", "probability"])
def test_rule_ranges_are_closed_at_the_floats_next_to_open_ends(rule, inside, outside):
    for value in inside:
        assert _real(value, "x", *rule) == value
        assert type(_real(value, "x", *rule)) is float
    for value in outside + [True, "1", None]:
        with pytest.raises(ConfigurationError) as info:
            _real(value, "x", *rule)
        assert info.value.field == "x"
        assert str(info.value) == f"x must be {rule[0]}, got {value!r}"


def test_real_without_a_range_takes_every_float():
    for value in (math.nan, math.inf, -math.inf, 0.0):
        assert _real(value, "x") is value
    with pytest.raises(ConfigurationError, match="x must be within float range"):
        _real(10 ** 400, "x")


def test_integer_range_is_closed():
    assert [_integer(v, "k", "0 or 1", 0, 1) for v in (0, 1.0)] == [0, 1]
    for value in (-1, 2, 0.5, True, math.nan, math.inf, "1"):
        with pytest.raises(ConfigurationError, match=r"^k must be 0 or 1, got "):
            _integer(value, "k", "0 or 1", 0, 1)
