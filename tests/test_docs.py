"""Names the package exports, the README cites and the benchmark imports
must exist."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import weilflow

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CAMEL = r"[A-Z][a-z]+(?:[A-Z][a-z]+)+"
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
    # the package's classes and errors: a `CamelCase.field` must name one too
    cited = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", README)
    checked = 0
    for owner, name in cited:
        if owner in SUBMODULES:
            assert _has(importlib.import_module("weilflow." + owner), name), (owner, name)
        elif owner in weilflow.__all__ or re.fullmatch(CAMEL, owner):
            assert owner in weilflow.__all__ and _has(getattr(weilflow, owner), name), (owner, name)
        else:
            continue
        checked += 1
    assert checked >= 3
    for name in re.findall(r"`(%s)`" % CAMEL, README):
        assert name in weilflow.__all__, name


def test_readme_cites_every_cap():
    # every module-level *_CAP limit in src/weilflow is named in README as
    # `module.NAME`, so a new limit cannot go undocumented
    caps = set()
    for source in sorted(Path(weilflow.__file__).parent.glob("*.py")):
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            caps |= {"%s.%s" % (source.stem, t.id) for t in targets
                     if isinstance(t, ast.Name) and t.id.endswith("_CAP")}
    assert {"formula.COUNT_CAP", "formula.G_CAP", "bumps.LADDER_CAP"} <= caps
    assert [cap for cap in sorted(caps) if "`%s`" % cap not in README] == []


def test_readme_layout_lists_every_module():
    # README's Layout block has a line for each module of the package, so a
    # new module cannot go unlisted
    layout = README.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE))
    assert "errors" in SUBMODULES
    assert sorted(SUBMODULES - listed) == []


def test_readme_cites_every_error():
    # every class in weilflow.errors has a row in README's error table, with
    # its parent and the exit code the command line gives it
    from weilflow import errors

    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    rows = dict(re.findall(r"^\| `(\w+)` \| `(\w+)` \|", README, re.MULTILINE))
    assert len(classes) >= 16 and "SidesTooLarge" in classes
    assert rows == {name: cls.__bases__[0].__name__ for name, cls in classes.items()}
    for name, cls in classes.items():
        code = 2 if issubclass(cls, errors.ComputationError) else 1
        assert re.search(r"^\| `%s` \| `\w+` \| %d \|" % (name, code), README, re.MULTILINE), name


def _resolve(path: str) -> bool:
    """Whether the dotted path weilflow[.sub...].NAME exists, importing the
    submodules the package itself does not (weilflow.cli)."""
    obj, prefix = None, ""
    for part in path.split("."):
        prefix = prefix + "." + part if prefix else part
        if obj is not None and hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(prefix)
        except ImportError:
            return False
    return True


def _dotted(node) -> str | None:
    """a.b.c for an attribute chain on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def test_benchmark_import_surface_resolves():
    # perfbench/ runs the package from outside: every name it imports from
    # weilflow and every weilflow.NAME path it reads must exist, so a change
    # that would break the benchmark fails here first
    paths = set()
    for source in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weilflow":
                paths |= {node.module + "." + alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                paths |= {a.name for a in node.names if a.name.split(".")[0] == "weilflow"}
            elif isinstance(node, ast.Attribute) and (_dotted(node) or "").startswith("weilflow."):
                paths.add(_dotted(node))
    assert {"weilflow.bumps.GL_ORDER", "weilflow.formula.NU_FLOOR", "weilflow.cli.main"} <= paths
    assert [p for p in sorted(paths) if not _resolve(p)] == []


def _cache_size(decorator):
    """(is a functools cache, its maxsize node or None for unbounded) for
    one decorator: lru_cache(maxsize=n) or lru_cache(n), bare lru_cache
    (maxsize 128), and cache (unbounded)."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = (_dotted(call.func if call else decorator) or "").rsplit(".", 1)[-1]
    if name == "cache":
        return True, None
    if name != "lru_cache":
        return False, None
    if call is None:
        return True, ast.Constant(128)
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return True, sizes[0] if sizes else ast.Constant(128)


def test_caches_are_bounded_unless_keyed_by_ints():
    # a long-lived process calls verify on ever new inputs: a cache keyed by
    # floats or tuples must stop growing, and only one keyed by small ints
    # (a degree, say) may keep every entry
    bounded, unbounded = set(), set()
    for source in sorted(Path(weilflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                cached, size = _cache_size(decorator)
                if not cached:
                    continue
                if isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0:
                    bounded.add(node.name)
                    continue
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                assert all(isinstance(a.annotation, ast.Name) and a.annotation.id == "int"
                           for a in args), (source.name, node.name)
                assert node.args.vararg is None and node.args.kwarg is None, node.name
                unbounded.add(node.name)
    assert {"_weil_roots", "_gl"} <= bounded
