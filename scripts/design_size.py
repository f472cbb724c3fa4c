"""Print the size of the package: src/ lines, code lines and public names.

    python scripts/design_size.py

Lines are all lines of the .py files under src/. A code line is a line that
holds a token other than a comment, a newline or an indent, and is not part
of a docstring (the string statement that opens a module, class or
function); a line inside a multi-line string counts when the string is not
a docstring. Public names are len(metaweight.__all__).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    files = sorted(SRC.rglob("*.py"))
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    code = sum(code_lines(path) for path in files)
    sys.path.insert(0, str(SRC))
    import metaweight

    print(f"src/ lines: {total}")
    print(f"code lines: {code}")
    print(f"__all__: {len(metaweight.__all__)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
