"""Every .py file under src/ and tools/ parses as the syntax of the oldest
Python that pyproject.toml's requires-python allows (3.10). This checks syntax
only (`except*` and PEP 695 generics are rejected), not that the code runs on
that version."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    oldest = (int(found[1]), int(found[2]))
    assert oldest == (3, 10)
    sources = sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 10
    rejected = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert rejected == []
