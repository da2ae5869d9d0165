"""A model module keeps some imports only so that the benchmark's tracer can
wrap them there (``# noqa: F401``, unused by the module itself).  Each of
those names must be a tracer site, so that an edit to ``SITES`` cannot leave
a dead import behind."""

import ast
from pathlib import Path

import pytest
from test_trace_sites import _sites

_MODELS = sorted((Path(__file__).resolve().parent.parent / "src" / "enspost" / "models")
                 .glob("*.py"))


def _tracer_only_imports(path: Path) -> list[str]:
    """The names of ``path``'s top-level ``# noqa: F401`` imports that the
    module never reads."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read]


def test_some_model_module_keeps_a_tracer_only_import():
    assert any(_tracer_only_imports(path) for path in _MODELS)


@pytest.mark.parametrize("path", _MODELS, ids=lambda path: path.stem)
def test_tracer_only_imports_are_tracer_sites(path):
    module = "enspost.models" if path.stem == "__init__" else f"enspost.models.{path.stem}"
    sites = {(site[0], site[1]) for site in _sites()}
    dead = [name for name in _tracer_only_imports(path) if (module, name) not in sites]
    assert not dead, f"{module} imports {dead} for the tracer, which wraps none of them"
