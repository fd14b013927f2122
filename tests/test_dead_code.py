"""Every function, method and class under src/clawpack is used there.

A definition counts as used when some module of the package names it: as a
`Name`, as an `Attribute`, or as an imported alias. Dunders and click
commands (reached through the decorator) are exempt. Code only tests call
belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clawpack"


def _is_click_command(node: ast.AST) -> bool:
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(f, ast.Attribute) and f.attr in ("command", "group"):
            return True
    return False


def unreferenced_definitions() -> list[str]:
    defined: list[tuple[str, str, int]] = []
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _is_click_command(node):
                    defined.append((node.name, path.name, node.lineno))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{file}:{line} {name}" for name, file, line in defined if name not in used]


def test_every_definition_in_src_is_referenced_in_src():
    assert unreferenced_definitions() == []
