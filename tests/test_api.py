"""The documented API: README's "Library" list against ``__all__``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qptkit

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_list_names() -> set[str]:
    """Identifiers in backticks in the bulleted list of README's "Library"."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = re.search(r"^- .*?(?=\n\n)", section, re.S | re.M).group(0)
    return {name for name in re.findall(r"`([^`]+)`", bullets) if name.isidentifier()}


def test_top_level_exports_the_readme_library_list():
    assert set(qptkit.__all__) == _library_list_names()
    assert len(qptkit.__all__) == len(set(qptkit.__all__))


@pytest.mark.parametrize("module", [qptkit.__name__] + [
    f"{qptkit.__name__}.{info.name}" for info in pkgutil.iter_modules(qptkit.__path__)])
def test_every_exported_name_exists(module):
    module = importlib.import_module(module)
    assert module.__all__, f"{module.__name__} has no __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing {missing}"
