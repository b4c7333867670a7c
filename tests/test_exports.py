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


def test_readme_library_block_runs():
    block = re.search(r"## Library\s+```python\n(.*?)```", README, re.S).group(1)
    assert "from xspectra import" in block
    exec(compile(block, "README.md", "exec"), {})


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


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these functions by name; a rename
    # should fail here rather than in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer._TARGETS
        if not callable(getattr(importlib.import_module(f"xspectra.{module}"), attr, None))
    ]
    assert missing == []
