"""No import under ``src/`` or ``tests/`` goes unused.

CI lints with ``ruff check src tests``, whose default rule set reports
an import nobody references (F401).  This scan runs the same check
inside the test suite, so an unused import fails before CI does.  A
name counts as referenced when it is read anywhere in its file, listed
in the file's ``__all__``, or named inside a string annotation;
``__future__`` imports and lines marked ``# noqa`` are skipped.  Unlike
pyflakes the scan is not scope-aware: a function-local import whose name
is read elsewhere in the file passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")


def _imports(tree):
    """Every ``(name bound, line)`` an import statement introduces."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno


def _string_annotations(tree):
    """The annotations written as string literals."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(
                arg.annotation
                for arg in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg,
                )
                if arg is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    yield inner.value


def _references(tree):
    """Every name the file reads, exports or annotates with."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                )
    for text in _string_annotations(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names.update(
            node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)
        )
    return names


def unused_imports(path, root=ROOT):
    """``file:line: name`` for every import in ``path`` never referenced."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _references(tree)
    relative = path.relative_to(root)
    return [
        f"{relative}:{line}: {name}"
        for name, line in _imports(tree)
        if name not in used and "# noqa" not in lines[line - 1]
    ]


def test_scan_flags_an_unused_import_and_spares_used_ones(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import (\n"
        "    List,\n"
        "    Dict,\n"
        "    Set,\n"
        ")\n"
        "import json  # noqa: F401\n"
        "__all__ = ['Set']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(sample, root=tmp_path) == [
        "sample.py:2: os",
        "sample.py:6: Dict",
    ]


def test_no_unused_imports():
    found = [
        entry
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for entry in unused_imports(path)
    ]
    assert not found, "unused imports (ruff F401):\n" + "\n".join(found)
