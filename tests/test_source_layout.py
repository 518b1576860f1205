"""Code that only tests call lives in tests/, not in the package.

Walks the syntax trees of ``src/glyphsdf/*.py`` and fails, naming them, on
public module-level functions and classes that no other top-level
statement of the package refers to (by name, attribute or import).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glyphsdf"


def _names_used(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def unreferenced_public_names(src=SRC):
    defined, uses = [], []
    for path in sorted(Path(src).glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.append((node, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node))
    return [
        qualified
        for qualified, node in defined
        if not any(qualified.rpartition(".")[2] in names for other, names in uses if other is not node)
    ]


def test_every_public_name_is_used_by_the_package():
    unused = unreferenced_public_names()
    assert not unused, f"public names that no code under src/ refers to: {unused}"
