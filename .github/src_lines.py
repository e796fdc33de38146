"""Line counts of each module under src/: all lines, and code lines, which
leave out blank lines, comment-only lines and docstrings.

    python .github/src_lines.py

Prints one tab-separated row per module, then the totals.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers the module's, classes' and functions' docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, 1)
               if n not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main():
    print("module\tlines\tcode")
    total = code = 0
    for path in sorted(SRC.rglob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.relative_to(SRC.parent).as_posix()}\t{lines}\t{code_lines}")
    print(f"total\t{total}\t{code}")


if __name__ == "__main__":
    main()
