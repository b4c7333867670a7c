import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import xspectra

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from xspectra import" in block
    exec(compile(block, "README.md", "exec"), {})


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
