"""Line counts of each module under src/: all lines, and code lines, which
leave out blank lines, comment-only lines and docstrings.

    python .github/src_lines.py
    python .github/src_lines.py --base HEAD^

Prints one tab-separated row per module, then the totals. With --base REV,
each row gives the module's counts at git revision REV, in the working
tree, and the difference; a module missing on one side counts 0 there.
"""

import argparse
import ast
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def count(text):
    """(all lines, code lines) of one module's text."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, 1)
               if n not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, encoding="utf-8").stdout


def counts_now():
    """{module path: (lines, code)} of the working tree's src/."""
    return {path.relative_to(ROOT).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in SRC.rglob("*.py")}


def counts_at(rev):
    """{module path: (lines, code)} of src/ at git revision `rev`."""
    names = git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines()
    return {name: count(git("show", f"{rev}:{name}")) for name in names if name.endswith(".py")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count src/ at this git revision, and the difference")
    args = parser.parse_args()
    now = counts_now()
    if args.base is None:
        rows = now
        print("module\tlines\tcode")
    else:
        base = counts_at(args.base)
        rows = {}
        for name in base.keys() | now.keys():
            (base_lines, base_code), (lines, code) = base.get(name, (0, 0)), now.get(name, (0, 0))
            rows[name] = base_lines, base_code, lines, code, lines - base_lines, code - base_code
        print(f"module\tlines@{args.base}\tcode@{args.base}\tlines\tcode\tdiff lines\tdiff code")
    for name in sorted(rows):
        print("\t".join([name, *map(str, rows[name])]))
    print("\t".join(["total", *(str(sum(col)) for col in zip(*rows.values()))]))


if __name__ == "__main__":
    main()
