"""``src/`` holds what a command, the benchmark or other package code reaches.

Every public module-level function of ``cylpack`` must be read somewhere in
``src/`` or ``perfbench/`` other than its own definition, or be listed in
``ALLOWED`` with the reader that keeps it.  A function counts as read only
through its own module: as ``module.name``, as a bare name inside that
module, or by ``from module import name``, so that a function of the same
name in another module is no reader.  A function only tests call belongs in
a ``tests/`` oracle or helper.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylpack"

# public functions no src/ or perfbench/ code names, each with its reader
ALLOWED = {
    "cylinders.crv": "re-exported by cylpack/__init__ as package API",
    "densities.line_integral": "acceptance criterion 1 reads it",
    "densities.plane_section_integral": "acceptance criterion 1 reads it",
    "densities.mu_total_mass": "acceptance criterion 1 reads it",
    "densities.density_at": "the chord measure's density, README densities API",
    "densities.mu_of_cylinder": "the chord measure of a cylinder, README densities API",
    "densities.sphere_section_total": "the section measure's mass, README densities API",
}


def _reads(path: Path) -> dict[tuple[str, str], set]:
    """{(module, name): top-level definitions (None outside any) whose code
    reads that module's name}."""
    reads = defaultdict(set)
    for node in ast.parse(path.read_text()).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reads[path.stem, sub.id].add(owner)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                reads[sub.value.id, sub.attr].add(owner)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Attribute):
                reads[sub.value.attr, sub.attr].add(owner)
            elif isinstance(sub, ast.ImportFrom) and sub.module:
                for alias in sub.names:
                    reads[sub.module.rpartition(".")[2], alias.name].add(owner)
    return reads


def test_every_public_function_has_a_reader():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    reads = {path: _reads(path) for path in files}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            key = (path.stem, node.name)
            readers = {(other, owner) for other, names in reads.items()
                       for owner in names.get(key, ())}
            name = f"{path.stem}.{node.name}"
            if not readers - {(path, node.name)} and name not in ALLOWED:
                unreached.append(name)
    assert unreached == []


def test_every_allowed_function_exists():
    for name in ALLOWED:
        module, func = name.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert any(isinstance(node, ast.FunctionDef) and node.name == func
                   for node in tree.body), name
