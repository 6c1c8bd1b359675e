import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _top_level_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    # Every distribution used here installs a module of its own name, so
    # a requirement's name is the module it provides.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]

    def declared(requirements):
        return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in requirements}

    runtime = declared(project["dependencies"])
    test = runtime | declared(project["optional-dependencies"]["test"])
    root = PYPROJECT.parent
    for directory, allowed in [("src", runtime), ("tests", test)]:
        files = sorted((root / directory).rglob("*.py"))
        local = {"scandilid"} | {path.stem for path in files}
        for path in files:
            third_party = _top_level_imports(path) - set(sys.stdlib_module_names) - local
            assert third_party <= allowed, (path.name, sorted(third_party - allowed))


def test_only_ingest_and_model_import_json():
    # JSONL records go through ingest; model needs json for its file header.
    package = Path(__file__).parent.parent / "src" / "scandilid"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.stem)
    assert importers <= {"ingest", "model"}, sorted(importers - {"ingest", "model"})


def test_only_ingest_and_model_touch_files():
    # ingest opens records and corpora, model its own file; every other
    # module hands paths to them, so composing and augmenting stay free of I/O.
    package = Path(__file__).parent.parent / "src" / "scandilid"
    file_methods = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in file_methods
            ):
                callers.add(path.stem)
    assert callers <= {"ingest", "model"}, sorted(callers - {"ingest", "model"})


def test_only_core_tests_for_an_exact_int():
    # The exact-int rule (a bool is not an int) is core._check_int's alone.
    package = Path(__file__).parent.parent / "src" / "scandilid"
    checkers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare) or not isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                continue
            sides = [node.left, *node.comparators]
            calls_type = any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type" for s in sides)
            if calls_type and any(isinstance(s, ast.Name) and s.id == "int" for s in sides):
                checkers.add(path.stem)
    assert checkers <= {"core"}, sorted(checkers - {"core"})


def test_only_features_names_the_token_cache():
    # The cache's policy and capacity stay behind one module.
    package = Path(__file__).parent.parent / "src" / "scandilid"
    namers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in {"_caches", "_CACHE_TOKENS"}:
                namers.add(path.stem)
    assert namers <= {"features"}, sorted(namers - {"features"})


FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # After a failing @given test, Hypothesis imports libcst to write a
    # patch, and that import warns; the suite's warning filters must not
    # turn the warning into an INTERNALERROR that skips every later test.
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
