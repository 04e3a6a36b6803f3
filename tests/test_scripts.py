"""The scripts under scripts/ run to completion, the module doctests hold,
the README names only what the package has, and every library definition has
a caller outside the tests."""

import ast
import collections
import doctest
import functools
import importlib
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import types

import pytest

import heckecells
import heckecells.affine
import heckecells.hecke
import heckecells.laurent
import heckecells.orbits
import heckecells.rootdata

ROOT = pathlib.Path(__file__).resolve().parents[1]

# small arguments for each script; "{tmp}" is the test's temporary directory
SCRIPT_ARGS = {
    "fusion_tables.py": ["--type", "A1", "--p", "5"],
    "stabilization_report.py": ["--types", "A1"],
    "render_cell_diagrams.py": ["--outdir", "{tmp}"],
}


def test_every_script_is_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_exits_zero(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in SCRIPT_ARGS[script]]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "module",
    [
        heckecells.laurent,
        heckecells.rootdata,
        heckecells.affine,
        heckecells.hecke,
        heckecells.orbits,
    ],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted and not result.failed


def _layout_names() -> list[str]:
    """The identifiers in backticks in the rows of README's "Library layout"
    table, a call like `closure(starts, step)` by its name."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", "\n".join(
        line for line in layout.splitlines() if line.startswith("| `heckecells")
    ))
    pattern = re.compile(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?")
    return [m.group(1) for span in spans if (m := pattern.fullmatch(span))]


def test_readme_layout_names_exist():
    # a name is a CLI command, or a dotted path from the package, from one
    # of its modules or from one of their classes
    modules = {
        info.name: importlib.import_module(f"heckecells.{info.name}")
        for info in pkgutil.iter_modules(heckecells.__path__)
    }
    parser = modules["cli"].build_parser()
    commands = {parser.prog} | {
        name for action in parser._actions if isinstance(action.choices, dict)
        for name in action.choices
    }
    classes = [
        cls for mod in modules.values() for _, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__ == mod.__name__
    ]
    scopes = [types.SimpleNamespace(heckecells=heckecells, **modules), *modules.values(), *classes]

    def resolves(name):
        for scope in scopes:
            try:
                functools.reduce(getattr, name.split("."), scope)
                return True
            except AttributeError:
                pass
        return False

    names = _layout_names()
    assert len(names) > 50
    assert [n for n in names if n not in commands and not resolves(n)] == []


def _aliases(names, scope) -> list[list[str]]:
    """The groups of two or more of names that bind one class or function of scope."""
    by_object = collections.defaultdict(list)
    for name in names:
        obj = getattr(scope, name)
        if callable(obj):
            by_object[id(obj)].append(name)
    return [group for group in by_object.values() if len(group) > 1]


def test_no_class_or_function_has_two_names():
    # one name per operation: the package's exports, and each module's
    # top-level names, bind every class and function once
    found = {"heckecells": _aliases(heckecells.__all__, heckecells)}
    for info in pkgutil.iter_modules(heckecells.__path__):
        module = importlib.import_module(f"heckecells.{info.name}")
        names = [name for name in vars(module) if not re.fullmatch(r"__\w+__", name)]
        found[module.__name__] = _aliases(names, module)
    assert {name: groups for name, groups in found.items() if groups} == {}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}"


def _used_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(names, attributes): the bare names and import aliases the tree uses,
    and the attribute names it reaches."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names, attributes


def test_every_definition_has_a_caller():
    # code that only the tests call does not belong in the library.  Callers
    # are src/ (other than the re-exports of __init__.py), scripts/ and
    # bench/.  A function or class counts as used when a caller names it; a
    # method only when a caller reaches it as an attribute (a local name such
    # as a parameter does not count) or when it overrides a base-class
    # method.  Whatever the benchmark's tracer wraps counts as used too.
    src = sorted((ROOT / "src" / "heckecells").glob("*.py"))
    callers = [p for p in src if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names, attributes = set(), set()
    for p in callers:
        found_names, found_attributes = _used_names(ast.parse(p.read_text(encoding="utf-8")))
        names |= found_names
        attributes |= found_attributes
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{module}.{path}" for targets in tracer.TIMED.values() for module, path in targets}

    def used(module: str, name: str) -> bool:
        owner, _, last = name.rpartition(".")
        if re.fullmatch(r"__\w+__", last) or f"{module}.{name}" in traced:
            return True
        if not owner:
            return last in names or last in attributes
        cls = getattr(importlib.import_module(f"heckecells.{module}"), owner)
        return last in attributes or any(last in vars(base) for base in cls.__mro__[1:])

    unused = [
        f"{p.stem}.{name}"
        for p in src
        for name in _definitions(ast.parse(p.read_text(encoding="utf-8")))
        if not used(p.stem, name)
    ]
    assert unused == []
