"""Count the code lines of every Python file under a directory.

A code line holds at least one token that is not a comment. Blank lines,
comment lines and the lines of docstrings (the string literal that opens a
module, class or function body, found with ``ast``) do not count; the
other lines of a statement that spans several do.

Usage:
    python3 scripts/code_lines.py src/hsepsr

prints one ``<count> <path>`` line per file, its path relative to the
directory, then ``<total> total``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count_tree(root) -> dict:
    """Code lines per ``.py`` file under ``root``, keyed by relative path
    in sorted order."""
    root = Path(root)
    return {
        str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", help="directory to count under")
    args = parser.parse_args(argv)
    counts = count_tree(args.directory)
    for path, n in counts.items():
        print(f"{n:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
