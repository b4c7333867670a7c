"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import tracer
import worker
import workloads
from calibrate import HostClock
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
KNOWN_DEFECT = "verify-zeros-a5-n12"  # degree-12 member the SVD cannot build


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_and_workload_names(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def _namespaces():
    import xspectra
    from xspectra import cli, models, numerics, xop

    return [(xspectra, "x1_polynomial"), (cli, "x1_polynomial"), (models, "x1_polynomial"),
            (numerics, "x1_polynomial"), (xop, "x1_polynomial"), (cli, "main"),
            (cli, "count_real_roots_in"), (cli, "extract_potential_report"),
            (numerics, "integrate"), (models, "potential")]


def test_wrappers_patch_every_namespace_and_restore():
    before = [getattr(mod, attr) for mod, attr in _namespaces()]
    with pytest.raises(RuntimeError):
        with Tracer():
            for (mod, attr), original in zip(_namespaces(), before):
                assert getattr(mod, attr) is not original, (mod.__name__, attr)
            raise RuntimeError("leave the block early")
    assert [getattr(mod, attr) for mod, attr in _namespaces()] == before


def test_traced_counts_and_self_time(tmp_path):
    from xspectra import cli

    argv = ["verify", "--suite", "zeros", "--a", "2", "--nmax", "3",
            "--manifest", str(tmp_path / "z.json")]
    with Tracer() as t:
        assert cli.main(argv) == 0
    m = t.layer_metrics()
    assert m["xop.x1_polynomial.calls"] == 3
    assert m["xop.x1_polynomial.failed"] == 0
    assert m["polycore.count_real_roots_in.calls"] == 6
    assert 0.0 < m["cli.main.self_s"] <= m["cli.main.s"]
    assert m["xop.x1_polynomial.s"] + m["polycore.count_real_roots_in.s"] <= m["cli.main.s"]
    assert set(m) == set(tracer.PER_LAYER) - {"trace.overhead_s"}


def test_host_clock_samples_during_an_op_and_restores_the_timer():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    clock = HostClock("sturm")
    clock.start_op()
    deadline = time.perf_counter() + 0.8
    while time.perf_counter() < deadline:
        sum(range(1000))
    wall, cpu, wall_ref, cpu_ref = clock.end_op()
    assert clock.rounds >= 3  # before, at least one from the timer, after
    assert 0.0 < wall < 0.8 and cpu > 0.0 and wall_ref > 0.0 and cpu_ref > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_union_length_counts_overlap_once():
    assert tracer._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


def test_gate_separates_loud_failures_from_wrong_answers(tmp_path):
    op = workloads.Op("x", (), str(tmp_path / "m.json"))
    rows = [{"name": "c", "status": "fail", "measured": 1.0, "tolerance": 0.0}]
    (tmp_path / "m.json").write_text(json.dumps(
        {"command": "c", "parameters": {}, "outputs": [], "checks": rows}))
    assert workloads.gate(op, 1, seed=1)["wrong"] is False
    assert workloads.gate(op, 0, seed=1)["wrong"] is True
    (tmp_path / "m.json").write_text(json.dumps({"command": "c", "checks": []}))
    assert workloads.gate(op, 0, seed=1)["problems"] == ["manifest lacks parameters,outputs"]
    os.unlink(tmp_path / "m.json")
    missing = workloads.gate(op, 1, seed=1)
    assert missing["problems"] and not missing["wrong"]


def test_seed_zero_is_the_reference_and_other_seeds_differ(tmp_path):
    ref = workloads.build("table_large", 0, str(tmp_path))[0].argv
    assert ref[:9] == ("table", "--family", "radial", "--a", "2.0", "--k", "1.75", "--eps", "1.2")
    assert workloads.build("table_large", 7, str(tmp_path)) == workloads.build(
        "table_large", 7, str(tmp_path))
    assert workloads.build("table_large", 7, str(tmp_path)) != workloads.build(
        "table_large", 0, str(tmp_path))
    assert workloads.build("verify_all", 7, str(tmp_path)) == workloads.build(
        "verify_all", 0, str(tmp_path))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass(name, tmp_path, monkeypatch):
    from xspectra import cli

    monkeypatch.setenv("XSPECTRA_THREADS", workloads.THREADS[name])
    ops = workloads.build(name, 1, str(tmp_path))
    result = worker.run_pass(cli, ops, 1, HostClock(workloads.KERNEL[name]))
    assert result["wall"] > 0.0 and result["wall_ref"] > 0.0
    for op, res in zip(ops, result["ops"]):
        assert not res["wrong"], (op.label, res["problems"])
        if op.label != KNOWN_DEFECT:
            assert res["problems"] == [], op.label


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "spectrum_complex", "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = tracer.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "verify_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
