"""Count the source lines of the umstparse package.

    python3 tools/src_lines.py [ROOT]

ROOT is a checkout (default: the one holding this script).  For each
module of ``ROOT/src/umstparse`` it prints, as JSON, the total lines and
the code lines: lines that are not blank, not comment-only and not inside
a module, class or function docstring.  A line that a multi-line string
other than a docstring spans is code.  The sums over all modules come
last, under "total".  Standard library only.
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """Total and code lines of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return {"total": len(source.splitlines()), "code": len(code)}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "umstparse").glob("*.py"))
    if not modules:
        print(f"no modules under {root / 'src' / 'umstparse'}", file=sys.stderr)
        return 2
    counts = {path.name: count(path.read_text(encoding="utf-8")) for path in modules}
    counts["total"] = {key: sum(c[key] for c in counts.values())
                       for key in ("total", "code")}
    try:
        print(json.dumps(counts, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (e.g. head) closed the pipe; not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
