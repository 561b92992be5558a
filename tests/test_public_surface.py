"""The package exports exactly what README's "Library" section documents,
and every top-level name in it is reached from outside its own statement."""

import ast
import glob
import os
import re
import types

import cbpv_quant

ROOT = os.path.join(os.path.dirname(__file__), "..")
README = os.path.join(ROOT, "README.md")


def _library_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def _exports() -> set:
    return {
        name
        for name, value in vars(cbpv_quant).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_export_is_documented():
    words = set(re.findall(r"\w+", _library_section()))
    assert sorted(_exports() - words) == []


def test_readme_import_block_is_exported():
    block = re.search(r"from cbpv_quant import \(([^)]*)\)", _library_section()).group(1)
    names = {n.strip() for n in block.split(",") if n.strip()}
    assert names and sorted(names - _exports()) == []


def test_library_example_prints_its_comment(capsys):
    # the example's printed interval matches the `# ...` comment after it
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    want = re.findall(r"#\s*(.*)$", code, re.M)[-1]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [want]


def _named(node) -> set:
    """The identifiers `node` reads as a name or an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _defines(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_every_top_level_name_is_reached():
    # a name only the tests reach belongs in a test helper module, not in
    # the package: each top-level def, class or assignment must be named by
    # another package statement, by the benchmark, or by an __init__ export
    stmts = [
        (os.path.basename(path), stmt)
        for path in sorted(glob.glob(os.path.join(ROOT, "src", "cbpv_quant", "*.py")))
        for stmt in _parse(path).body
    ]
    reached = set()
    for path in glob.glob(os.path.join(ROOT, "bench", "*.py")):
        reached |= _named(_parse(path))
    for stmt in _parse(os.path.join(ROOT, "src", "cbpv_quant", "__init__.py")).body:
        if isinstance(stmt, ast.ImportFrom):
            reached |= {a.asname or a.name for a in stmt.names}
    named = [_named(stmt) for _, stmt in stmts]
    unreached = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _defines(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reached
        and not any(name in other for j, other in enumerate(named) if j != i)
    ]
    assert unreached == []
