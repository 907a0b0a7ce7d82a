"""Imports a module keeps only for the benchmark's tracer.

densebench/layers.py wraps functions by module attribute, so a module
keeps some imports it never calls, marked `noqa: F401`, for the tracer to
find.  This test reads `install` and every module of the package as
source, and checks that each import a module never uses is one that
`install` wraps on that module, so a pinned import cannot outlive its wrap
and a stray import cannot pass as a pinned one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "densemodal"
LAYERS = ROOT / "densebench" / "layers.py"


def wrapped_names() -> set[tuple[str, str]]:
    """(module, attribute) for every wrap in layers.install on a module of
    the program, read from `m, ... = prog.m, ...` and `wrap(m, "name", ...)`."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    (install,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install"]
    modules = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                    if value.value.id == "prog":
                        modules[target.id] = value.attr
    wrapped = set()
    for node in ast.walk(install):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner, attr = node.args[:2]
        if name in ("wrap", "wrap_generator") and isinstance(owner, ast.Name) and owner.id in modules:
            wrapped.add((modules[owner.id], attr.value))
    return wrapped


def unused_imports(path: Path) -> set[str]:
    """Names a module imports at top level and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_unused_import_is_wrapped_on_its_module():
    wrapped = wrapped_names()
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        # The package's imports are its public surface.
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert ("windows", "is_saturation_of") in unused
    assert {"cli", "kdeab", "windows"} <= {module for module, _ in unused}
    assert unused - wrapped == set()


def test_a_stray_import_is_caught(tmp_path):
    module = tmp_path / "kdeab.py"
    module.write_text(
        "from .oracle import model_check, verify  # noqa: F401\n"
        "from .formula import sf\n"
        "verify\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == {"model_check", "sf"}
    assert ("kdeab", "model_check") in wrapped_names()
    assert ("kdeab", "sf") not in wrapped_names()
