"""The package exports exactly what README's "Library" section documents."""

import os
import re
import types

import cbpv_quant

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
