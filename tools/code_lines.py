"""Count the code lines of each module in ``src/hierstretch``.

A code line holds at least one token that is not a comment, and is not
part of a module, class or function docstring; blank lines do not count.
Prints one count per file and the total.  Run from the repository root:

    python tools/code_lines.py
"""
import ast, glob, io, tokenize

KINDS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
total = 0
for path in sorted(glob.glob("src/hierstretch/*.py")):
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, KINDS) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    count = len(code - docstrings)
    total += count
    print(f"{count:5} {path}")
print(f"{total:5} total")
