import ast
import importlib
import importlib.util
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import xspectra
from xspectra import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(xspectra.__path__)
    if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in xspectra.__all__ if not hasattr(xspectra, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"xspectra.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


LIBRARY = re.search(r"## Library\s+```python\n(.*?)```", README, re.S).group(1)

# the modules whose __all__ make up the package's, in import order
PUBLIC_MODULES = ("errors", "models", "numerics", "pct", "polycore", "xop")


def test_package_list_is_the_module_lists():
    expected = [
        name
        for module in PUBLIC_MODULES
        for name in importlib.import_module(f"xspectra.{module}").__all__
    ] + ["__version__"]
    assert xspectra.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_readme_library_imports_are_public():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(LIBRARY))
        if isinstance(node, ast.ImportFrom) and node.module == "xspectra"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in xspectra.__all__] == []


def test_readme_library_block_runs():
    assert "from xspectra import" in LIBRARY
    exec(compile(LIBRARY, "README.md", "exec"), {})


COMMANDS = [
    line for line in re.search(
        r"## Command line\s.*?```sh\n(.*?)```", README, re.S
    ).group(1).splitlines()
    if line.startswith("xspectra ")
]


def test_readme_command_block_is_found():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_block_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these functions by name; a rename
    # should fail here rather than in a traced benchmark run
    tracer = _load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer._TARGETS
        if not callable(getattr(importlib.import_module(f"xspectra.{module}"), attr, None))
    ]
    assert missing == []


def test_benchmark_tracer_reads_the_eigen_results(tmp_path):
    # the tracer's hook on eigen_near_shift reads the fields of its result
    with _load_tracer().Tracer() as t:
        assert cli.main([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "2", "--out", str(tmp_path / "s.csv"),
        ]) == 0
    counts = t.layer_metrics()
    assert counts["numerics.eigen_near_shift.calls"] == 2
    assert counts["numerics.eigen_near_shift.iterations"] >= 2
    assert counts["numerics.eigen_near_shift.unconverged"] == 0
