"""Print, per module of `src/clawpack` and in total, all lines and code
lines: the lines that are not blank, not comment-only and not part of a
docstring (the string that opens a module, class or function body).

    python3 scripts/line_count.py [package directory]

The default package directory is the repository's `src/clawpack`.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1 for i, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docs
    )
    return len(lines), code


def main(package: str) -> None:
    total_all = total_code = 0
    print(f"{'module':<16} {'lines':>7} {'code':>7}")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            n_all, n_code = count(os.path.join(package, name))
            total_all += n_all
            total_code += n_code
            print(f"{name:<16} {n_all:>7} {n_code:>7}")
    print(f"{'total':<16} {total_all:>7} {total_code:>7}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src", "clawpack"))
