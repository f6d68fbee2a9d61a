"""Guards on the public surface of ``repro``.

* Every ``repro`` import in ``examples/`` and ``perfbench/`` resolves.
  Nothing else imports those scripts, so without this a deleted or
  renamed definition would break them silently.
* Every public top-level function and class in ``src/repro`` has a
  caller: its name is used as a code identifier (a name or an attribute,
  not an import, ``__all__`` entry, string or comment) somewhere under
  ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``.  Tests do
  not count.  Registered PMT backends are reached by name and are
  exempt; the few definitions only tests call, kept on purpose because a
  user calls them too, are listed below.
* Every public top-level function and class in ``tests/oracles/`` is
  used as a code identifier by another module under ``tests/``, so no
  dead reference implementation collects there either.
* The ``REPRO_*`` environment variables that ``src/repro`` names are
  exactly the documented set, so a new environment knob fails a test.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Public definitions whose only callers are tests, kept on purpose.
TEST_ORACLES = {
    "profile_stats": "how the runner-sampler tests measure the sampler",
    "power_timeline_chart": "renders the sampler profile the same tests take",
    "http_get_text": "the only client of the service's /healthz",
    "http_post_json": "the only client of the service's /ingest",
    "make_noh": "initial conditions of the Noh shock validation",
    "noh_shock_speed": "analytic Noh solution the shock tests compare to",
    "noh_post_shock_density": "analytic Noh solution the shock tests compare to",
}


def _scripts():
    return sorted((ROOT / "examples").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )


def _repro_imports(path):
    """``(module, name or None)`` for every repro import, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, None


@pytest.mark.parametrize("path", _scripts(), ids=lambda p: p.name)
def test_script_imports_resolve(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` imports the submodule.
        importlib.import_module(f"{module_name}.{name}")


def _identifiers(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _used_identifiers():
    used = set()
    for tree_root in ("src", "benchmarks", "examples", "perfbench"):
        for path in (ROOT / tree_root).rglob("*.py"):
            used.update(_identifiers(path))
    return used


def _public_definitions(root=SRC):
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            decorators = [ast.unparse(d) for d in node.decorator_list]
            if any("register_backend" in d for d in decorators):
                continue
            yield path.relative_to(ROOT), node.name


def test_every_public_definition_has_a_caller():
    used = _used_identifiers()
    unreached = [
        f"{path}:{name}"
        for path, name in _public_definitions()
        if name not in used and name not in TEST_ORACLES
    ]
    assert unreached == []


def test_oracle_list_has_no_stale_entries():
    public = {name for _, name in _public_definitions()}
    used = _used_identifiers()
    assert sorted(set(TEST_ORACLES) - (public - used)) == []


def test_every_oracle_is_used_by_a_test():
    tests = ROOT / "tests"
    used = {path: set(_identifiers(path)) for path in tests.rglob("*.py")}
    unused = [
        f"{path}:{name}"
        for path, name in _public_definitions(tests / "oracles")
        if not any(
            name in names for other, names in used.items() if other != ROOT / path
        )
    ]
    assert unused == []


#: Every environment variable the package reads.
ENV_VARS = {
    "REPRO_AUDIT",
    "REPRO_CACHE_DIR",
    "REPRO_CAMPAIGN_WORKERS",
    "REPRO_LEASE_TTL_S",
    "REPRO_MAX_ATTEMPTS",
}


def test_environment_variables_are_the_documented_set():
    named = {
        node.value
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
    }
    assert named == ENV_VARS
