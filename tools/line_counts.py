"""Line counts of a directory's Python files, as a Markdown table.

    python tools/line_counts.py src/wg4

Each line of each ``*.py`` file is counted once, as the first of:
docstring (a module, class or function docstring, found with ``ast``),
blank, comment (its first non-blank character is ``#``), or code.  The
last row sums the files.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> dict[str, int]:
    """The file's total lines and its lines of each kind."""
    source = path.read_text()
    docstrings = docstring_lines(source)
    tally = dict.fromkeys(("total", *KINDS), 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = ("docstring" if number in docstrings else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        tally[kind] += 1
        tally["total"] += 1
    return tally


def main(directory: str) -> None:
    header = ("file", "total", *KINDS)
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    sums = dict.fromkeys(header[1:], 0)
    for path in sorted(Path(directory).glob("*.py")):
        tally = counts(path)
        for key in sums:
            sums[key] += tally[key]
        print(f"| {path} | " + " | ".join(str(tally[key]) for key in header[1:]) + " |")
    print("| **all** | " + " | ".join(f"**{sums[key]:,}**" for key in header[1:]) + " |")


if __name__ == "__main__":
    main(sys.argv[1])
