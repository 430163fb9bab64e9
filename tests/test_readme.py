"""README's "Library use" block runs as printed, and each line whose comment
is a Python literal evaluates to that literal."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def literal_comments(source: str) -> dict:
    """Line number -> value, for each comment that is a Python literal."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            try:
                out[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return out


def test_library_use_block_prints_what_it_says():
    source = library_use_block()
    expected = literal_comments(source)
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in expected:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == repr(expected[stmt.end_lineno]), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == len(expected) >= 2
