import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import output_digests
import range_map
from xspectra import cli

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


def test_range_map_slice(tmp_path, monkeypatch):
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


def test_committed_range_map():
    # the map runs exactly the verify suites that check the model
    assert [c[2] for c in range_map.COMMANDS if c[0] == "verify"] == [
        name for name, (_, reads) in cli._SUITES.items() if "family" in reads
    ]
    doc = json.loads((ROOT / "RANGE_map.json").read_text())
    runs = doc["runs"]
    assert [(r["command"], r["model"]) for r in runs] == [
        (" ".join(c), m) for m in range_map.grid_models() for c in range_map.commands_for(m)
    ]
    assert doc["summary"] == range_map.summary(runs)
    for row in runs:
        assert_exit_contract(row)


def test_output_digests_slice(tmp_path, monkeypatch):
    # an 11-point table and the runs that once ended in a traceback
    commands = [c for c in output_digests.COMMANDS if c[-2:] == ("--points", "11")]
    commands += list(output_digests.COMMANDS[-7:])
    monkeypatch.chdir(tmp_path)
    rows = [output_digests.digest(argv) for argv in commands]
    assert rows[0]["exit"] == 0
    assert sorted(rows[0]["files"]) == ["radial_table.csv", "radial_table.manifest.json"]
    assert [row["exit"] for row in rows[1:]] == [1] * 7
    assert list(tmp_path.iterdir()) == []
    # no timing and no measured value: a rerun gives the same bytes
    assert output_digests.render(output_digests.digest(argv) for argv in commands) == (
        output_digests.render(rows))


def test_output_digests_record_an_escaping_exception(monkeypatch):
    def escapes(argv):
        raise RuntimeError("not refused")

    monkeypatch.setattr(cli, "main", escapes)
    row = output_digests.digest(("verify", "--suite", "zeros"))
    assert (row["exit"], row["exception"], row["files"]) == (
        "traceback", "RuntimeError in escapes", {})


def test_an_escaping_exception_reaches_both_row_formats(monkeypatch):
    # the shared runner keeps what ran before the exception: a stderr
    # line and a manifest with a failing check
    def escapes(argv):
        print("warn: partial run", file=sys.stderr)
        with open("spectrum.manifest.json", "w") as handle:
            json.dump({"checks": [{"name": "level-1-rel", "status": "fail"}]}, handle)
        raise RuntimeError("not refused")

    monkeypatch.setattr(cli, "main", escapes)
    model = {"family": "radial", "a": 2, "k": 1.75, "eps": 0}
    row = range_map.map_row(("spectrum", "--nmax", "4"), model)
    assert (row["exit"], row["failing"], row["diagnostics"]) == (
        "traceback", ["level-1-rel"],
        ["warn: partial run", "RuntimeError in escapes: not refused"])
    argv = ("spectrum", "--nmax", "4", *range_map.model_argv(model))
    row = output_digests.digest(argv)
    assert (row["exit"], row["exception"], sorted(row["files"])) == (
        "traceback", "RuntimeError in escapes", ["spectrum.manifest.json"])
    assert row["stderr"] == output_digests._sha256(b"warn: partial run\n")


def test_output_digests_run_every_seed_0_benchmark_op(tmp_path, monkeypatch):
    # loaded read-only from its file, so the benchmark's argv spelling is
    # compared, not a copy of it; its dataclass needs it in sys.modules
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0, str(tmp_path)):
            argv, words = [], iter(op.argv)
            for word in words:
                if word in ("--out", "--manifest"):
                    next(words)
                else:
                    argv.append(word)
            assert tuple(argv) in output_digests.COMMANDS, (workload, op.label)
