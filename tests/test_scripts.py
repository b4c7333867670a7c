import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATASETS = (
    "radial_potential",
    "scarf_potential",
    "radial_spectrum",
    "radial_complex_spectrum",
    "scarf_spectrum",
)


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True,
    )


def test_scripts_run(tmp_path):
    done = run_script("make_figure_tables.py", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name in DATASETS:
        assert (tmp_path / f"{name}.csv").is_file()
        assert (tmp_path / f"{name}.manifest.json").is_file()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_exit_contract(row):
    """No traceback; exit 0 with no failing check and no `error:` line,
    exit 1 with one of them, exit 2 with an `error:` line alone."""
    errors = [line for line in row["diagnostics"] if line.startswith("error:")]
    assert row["exit"] in (0, 1, 2), row
    if row["exit"] == 0:
        assert row["failing"] == [] and errors == [], row
    elif row["exit"] == 1:
        assert row["failing"] or errors, row
    else:
        assert errors and row["failing"] == [], row


@pytest.fixture(scope="module")
def range_map():
    return load_script("range_map")


def test_range_map_slice(range_map, tmp_path, monkeypatch):
    # a radial model at the box-cut k = 0.5 and the singular edge a = 0.1,
    # the reference radial model, a shifted cos-branch Scarf model at
    # negative indices and a Hermitian Scarf model
    models = [
        {"family": "radial", "a": 0.1, "k": 0.5, "eps": 0},
        {"family": "radial", "a": 2, "k": 1.75, "eps": 1.2},
        {"family": "scarf", "a": -0.25, "b": -0.4, "k": 1.25, "eps": 1, "branch": "cos"},
        {"family": "scarf", "a": 1.75, "b": 3, "k": 3, "eps": 0, "branch": "sin"},
    ]
    monkeypatch.chdir(tmp_path)
    rows = range_map.range_map(models)
    assert len(rows) == 19
    for row in rows:
        assert_exit_contract(row)
    assert {row["exit"] for row in rows} == {0, 1, 2}
    assert list(tmp_path.iterdir()) == []
    # no timing and no measured value: a rerun gives the same bytes
    assert range_map.render(range_map.range_map(models)) == range_map.render(rows)


def test_committed_range_map(range_map):
    # the map runs exactly the verify suites that check the model
    assert [c[2] for c in range_map.COMMANDS if c[0] == "verify"] == [
        name for name, (_, reads) in range_map.cli._SUITES.items() if "family" in reads
    ]
    doc = json.loads((ROOT / "RANGE_map.json").read_text())
    runs = doc["runs"]
    assert [(r["command"], r["model"]) for r in runs] == [
        (" ".join(c), m) for m in range_map.grid_models() for c in range_map.commands_for(m)
    ]
    assert doc["summary"] == range_map.summary(runs)
    for row in runs:
        assert_exit_contract(row)
