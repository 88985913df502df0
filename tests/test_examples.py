"""Every ``examples/*.py`` script imports against the current public API.

Only the imports and module-level definitions run -- ``main()`` is
never called (the examples simulate full traces) -- so a renamed or
removed public name fails here instead of in a reader's terminal.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist() -> None:
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
