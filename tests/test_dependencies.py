"""sqkit depends on numpy alone: in its imports, its metadata and at run time.

Its data files are declared package data, so an installed sqkit ships them.
"""

import ast
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_import_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "sqkit").glob("*.py"))
    assert sources
    for path in sources:
        for name in _absolute_imports(path):
            assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"


def test_cli_builds_no_pose_of_its_own():
    """A record's pose comes only from ParamsRecord.pose, so the CLI cannot
    compose one that differs from what `sample` draws and `eval` scores."""
    path = ROOT / "src" / "sqkit" / "cli.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not imported & {"compose_affine", "PoseHypothesis"}


def _casts_of_arguments(source, cast):
    """(function, line) of each cast(p), cast(p.field) or cast(getattr(p, ...)) on a
    parameter p of the function, self included, where cast is "int" or "float"."""
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = func.args
        params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if arg is not None}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == cast and len(node.args) == 1):
                arg = node.args[0]
                if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                        and arg.func.id == "getattr" and arg.args):
                    arg = arg.args[0]
                elif isinstance(arg, ast.Attribute):
                    arg = arg.value
                if isinstance(arg, ast.Name) and arg.id in params:
                    yield getattr(func, "name", "<lambda>"), node.lineno


def _source_casts(cast, rule):
    """Casts of arguments in src/, outside `rule`, which casts once it has checked."""
    sources = sorted((ROOT / "src" / "sqkit").glob("*.py"))
    assert sources
    return [f"{path.name}:{line} in {func}" for path in sources
            for func, line in _casts_of_arguments(path.read_text(), cast) if func != rule]


def test_sources_check_integer_arguments_instead_of_truncating_them():
    """int() on an argument silently truncates 2.7 to 2 and accepts True as 1;
    counts, sizes, indices and seeds go through core._integer instead."""
    casts = _source_casts("int", "_integer")
    assert not casts, "int() on an argument: " + ", ".join(casts)


def test_sources_check_real_arguments_instead_of_casting_them():
    """float() on an argument accepts "0.5" and True and raises OverflowError
    past float range; real-valued arguments go through core._real instead."""
    casts = _source_casts("float", "_real")
    assert not casts, "float() on an argument: " + ", ".join(casts)


def test_cast_scan_finds_each_form():
    source = ("class A:\n"
              "    def f(self, a, b):\n"
              "        return float(a), float(self.x), float(getattr(self, 'y')), float(b[0])\n"
              "g = lambda c, d: int(c.z) + int(d) + int(e)\n")
    assert list(_casts_of_arguments(source, "float")) == [("f", 3)] * 3
    assert list(_casts_of_arguments(source, "int")) == [("<lambda>", 4)] * 2


def test_project_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_package_data_covers_every_data_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        setuptools = tomllib.load(f)["tool"]["setuptools"]
    package = ROOT / "src" / "sqkit"
    declared = {path for pattern in setuptools.get("package-data", {}).get("sqkit", [])
                for path in package.glob(pattern)}
    data = {path for path in package.rglob("*")
            if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts}
    assert data
    assert not data - declared, "not in [tool.setuptools.package-data]"


def test_fresh_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqkit, sqkit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


_IMPORT_PROBE = """
import json, sys
calls = set()
sys.setprofile(lambda frame, event, arg: event == "call" and calls.add(frame.f_code.co_name))
import {modules}
sys.setprofile(None)
import sqkit
print(json.dumps({{
    "stored_orders": sqkit.shapespace._stored_fps_orders.cache_info().currsize,
    "sampled": sorted(calls & {{"sample_surface", "_surface_points", "farthest_point_sample"}}),
}}))
"""


@pytest.mark.parametrize("modules", ["sqkit", "sqkit.cli"])
def test_fresh_import_builds_no_template(modules):
    """Templates cost nothing until asked for: a fresh import loads no stored
    order and samples no surface."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(modules=modules)],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"stored_orders": 0, "sampled": []}
