"""README drift: the tolerances table and the per-call settings list must
name what the modules really define.

The table under "Tolerances and limits" lists, per module, the numeric
constants that set tolerances and limits; the paragraph after it lists the
per-call settings that remain as `function(param, ...)`.  These tests fail
when a listed name is gone, a listed parameter is gone, or a module gains
a numeric constant the table does not list (the `RunConfig` defaults are
documented with `RunConfig` instead).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "nullsatz"
NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")
CONSTANT = re.compile(rf"`({NAME.pattern})`")


def _section(title: str) -> str:
    start = README.index(f"### {title}\n")
    end = README.index("\n#", start + 1)
    return README[start:end]


def _table() -> dict[str, set[str]]:
    """module -> the constant-style names its row of the table lists."""
    rows = {}
    for line in _section("Tolerances and limits").splitlines():
        m = re.match(r"\| `(\w+)` \| (.*) \|$", line)
        if m:
            rows[m.group(1)] = set(CONSTANT.findall(m.group(2)))
    return rows


def _settings() -> list[tuple[str, list[str]]]:
    """(function, parameters) for every entry of the per-call settings list."""
    text = _section("Tolerances and limits")
    text = text[text.index("The per-call settings that remain"):].split("\n\n")[0]
    return [
        (name, [p.strip() for p in params.split(",")])
        for name, params in re.findall(r"`(\w+)\(([\w, ]+)\)`", text)
    ]


def _runconfig_defaults() -> set[str]:
    """The module constants that RunConfig's fields take as defaults."""
    tree = ast.parse((PACKAGE / "config.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    return {
        n.value.id
        for n in cls.body
        if isinstance(n, ast.AnnAssign) and isinstance(n.value, ast.Name)
    }


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _numeric_constants(module: str) -> set[str]:
    """Constant-style names the module assigns a number literal at top level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_number(node.value):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None and _is_number(node.value):
            targets = [node.target]
        else:
            continue
        out |= {t.id for t in targets if isinstance(t, ast.Name) and NAME.fullmatch(t.id)}
    return out


def _function(name: str):
    for path in sorted(PACKAGE.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"nullsatz{stem}")
        fn = getattr(module, name, None)
        if callable(fn):
            return fn
    raise AssertionError(f"README names {name}(), which no module defines")


def test_the_sections_parse():
    assert set(_table()) == {"rootfind", "decompose", "nullsatz", "bergman", "hopf"}
    assert len(_settings()) >= 5


@pytest.mark.parametrize("module", sorted(_table()))
def test_every_listed_constant_exists(module):
    mod = importlib.import_module(f"nullsatz.{module}")
    missing = sorted(n for n in _table()[module] if not hasattr(mod, n))
    assert not missing, f"README lists {missing} under {module}, which does not define them"


@pytest.mark.parametrize("module", sorted(_table()))
def test_every_numeric_constant_is_listed(module):
    unlisted = _numeric_constants(module) - _table()[module] - _runconfig_defaults()
    assert not unlisted, f"{module} assigns {sorted(unlisted)}, which README's table does not list"


@pytest.mark.parametrize("name, params", _settings(), ids=[n for n, _ in _settings()])
def test_every_listed_setting_is_a_parameter(name, params):
    have = inspect.signature(_function(name)).parameters
    missing = [p for p in params if p not in have]
    assert not missing, f"README lists {name}({', '.join(params)}); {missing} are not parameters"
