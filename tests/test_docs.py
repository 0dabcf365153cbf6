"""Names the package exports and the README cites must exist."""

import dataclasses
import importlib
import re
from pathlib import Path

import weilflow

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SUBMODULES = {p.stem for p in Path(weilflow.__file__).parent.glob("*.py") if p.stem != "__init__"}


def test_every_exported_name_resolves():
    missing = [name for name in weilflow.__all__ if not hasattr(weilflow, name)]
    assert missing == []
    assert len(set(weilflow.__all__)) == len(weilflow.__all__)


def _has(owner, name: str) -> bool:
    if hasattr(owner, name):
        return True
    return dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}


def test_readme_names_exist():
    # `module.NAME` and `Class.field` for the package's modules and public
    # classes, and every bare `CamelCase` name, which the README uses only for
    # the package's classes and errors
    cited = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README)
    checked = 0
    for owner, name in cited:
        if owner in SUBMODULES:
            assert _has(importlib.import_module("weilflow." + owner), name), (owner, name)
        elif owner in weilflow.__all__:
            assert _has(getattr(weilflow, owner), name), (owner, name)
        else:
            continue
        checked += 1
    assert checked >= 3
    for name in re.findall(r"`([A-Z][a-z]+(?:[A-Z][a-z]+)+)`", README):
        assert name in weilflow.__all__, name
