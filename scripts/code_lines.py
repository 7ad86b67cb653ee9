"""Count the code lines of the package, module by module.

A code line holds at least one token that is not a comment or part of a
docstring; blank lines, comment lines and docstrings do not count. Docstrings
are found with ``ast`` (the leading string of a module, class or function)
and lines with ``tokenize``, so a string that spans lines counts every line.

    python scripts/code_lines.py [directory]

prints one ``<count> <module>`` line per module of the directory (default:
``src/matvecnet``) and a last ``<count> total`` line.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """Where each docstring of a parsed module begins, as (line, column)."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in Python source."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "matvecnet")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
