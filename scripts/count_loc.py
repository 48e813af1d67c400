"""Lines of code of a Python package: every physical line that holds a
token of code, so no blank line, no comment-only line and no line of a
docstring (the string that opens a module, class or function body).
Prints one "<module> <lines>" line per module, sorted by name, then the
total:

    python3 scripts/count_loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's src/filterlab.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "filterlab"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_loc(source):
    """The lines of code of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = count_loc(path.read_text(encoding="utf-8"))
        total += n
        print("%s %d" % (path.name, n))
    print("total %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
