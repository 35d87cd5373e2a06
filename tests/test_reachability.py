"""Every public module-level function and class of fractalab has a reader.

A definition is reached when its name is read in a fractalab module outside
its own definition, when fractalab.__all__ exports it, or when the benchmark
harness (perfbench/*.py) names it.  Names are matched as identifiers, so a
name shared with a local variable or attribute passes: this is a floor, not a
proof of reachability.
"""

import ast
from pathlib import Path

import fractalab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractalab"


def _names(tree):
    """Identifiers a syntax tree reads: names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_public_definition_is_reached():
    read = set(fractalab.__all__)
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= _names(ast.parse(path.read_text()))
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a reference from its own body does not count
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            read |= names
    assert defined
    unreached = [f"{module}.{name}" for module, name in defined if name not in read]
    assert not unreached, f"public definitions nothing reads: {', '.join(unreached)}"
