"""The README's library block runs, and imports exactly the names the package exports."""

import ast
import pathlib
import re

import tbbands

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_and_imports_the_exports(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "max_residual_h" in capsys.readouterr().out
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "tbbands"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(tbbands.__all__)
