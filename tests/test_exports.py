"""Every public module-level function and class of the package has a caller
outside its own definition: in the package, or in the benchmark harness,
whose layer tables name functions in strings."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

def _public_definitions():
    """{name: module file} of the public top-level functions and classes."""
    out = {}
    for path in sorted((ROOT / "src" / "nilflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _package_references():
    """(name, module file, enclosing top-level definition or None) of every
    Name and Attribute in the package."""
    refs = set()
    for path in sorted((ROOT / "src" / "nilflow").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    refs.add((getattr(node, "id", None) or node.attr, path.name, owner))
    return refs


def _benchmark_names():
    """Names and attributes in perfbench/*.py, plus the dotted components of
    its identifier-like string constants (the traced layer tables)."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[\w.]+", node.value):
                    names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    refs = _package_references()
    bench = _benchmark_names()
    uncalled = sorted(
        name
        for name, module in _public_definitions().items()
        if name not in bench
        and not any(r == name and (m, owner) != (module, name) for r, m, owner in refs)
    )
    assert uncalled == [], "public names without a caller: %s" % ", ".join(uncalled)
