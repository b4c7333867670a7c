"""One benchmark session in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, working directory, the seconds to
measure for, whether to trace, and the parent's ``time.monotonic()``
just before it started this process (a system-wide clock on Linux), so
set-up time includes interpreter start.

The session imports xspectra, runs one cold pass (filling the model
caches), then runs warm passes until its time is up.  With tracing it
alternates untraced and traced passes instead.  It prints one JSON
object on its last stdout line.

Every time is reported twice: as measured, and at the reference speed
of ``calibrate.py`` (see ``HostClock`` there).  The spec also carries a
kernel time the parent measured just before it started this process;
with the session's first kernel round it scales interpreter start and
import.  Traced passes take kernel rounds only between ops, so spans
hold no kernel time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import calibrate
import workloads
from tracer import Tracer


def run_pass(cli, ops, seed, clock, tracer=None) -> dict:
    """Run every op once through ``cli.main``; only the calls are timed,
    by ``clock`` (a ``calibrate.HostClock``)."""
    wall = cpu = wall_ref = cpu_ref = 0.0
    results = []
    for op in ops:
        workloads.clear_outputs(op)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            clock.start_op()
            try:
                code = cli.main(list(op.argv))
            finally:
                times = clock.end_op()
        wall += times[0]
        cpu += times[1]
        wall_ref += times[2]
        cpu_ref += times[3]
        checked = workloads.gate(op, code, seed)
        if tracer is not None:
            tracer.add("cli.bytes_written", checked["bytes"])
        if checked["problems"]:
            errors = [ln for ln in sink.getvalue().splitlines() if ln.startswith("error:")]
            checked["problems"] += errors[:1]
        results.append(checked)
    return {"wall": wall, "cpu": cpu, "wall_ref": wall_ref, "cpu_ref": cpu_ref, "ops": results}


def session(spec: dict) -> dict:
    from xspectra import cli
    import numpy
    import xspectra

    start_s = time.monotonic() - spec["spawn_monotonic"]
    kind = workloads.KERNEL[spec["workload"]]
    # traced passes take no kernel rounds inside ops, which the spans would count
    clock = calibrate.HostClock(kind, sampling=not spec["trace"])
    start_ref = start_s * calibrate.REFERENCE_S[kind] / (
        0.5 * (spec["calib_wall"] + clock.round()[0]))
    ops = workloads.build(spec["workload"], spec["seed"], spec["workdir"])
    seed = spec["seed"]
    cold = run_pass(cli, ops, seed, clock)
    setup_s = start_s + cold["wall"]
    setup_ref = start_ref + cold["wall_ref"]

    warm, untraced, traced, layers = [], [], [], []
    deadline = time.monotonic() + spec["seconds"]
    while True:
        start = time.monotonic()
        if spec["trace"]:
            untraced.append(run_pass(cli, ops, seed, clock))
            with Tracer() as tracer:
                traced.append(run_pass(cli, ops, seed, clock, tracer))
            layers.append(tracer.layer_metrics())
        else:
            warm.append(run_pass(cli, ops, seed, clock))
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break

    passes = [cold] + warm + untraced + traced
    digests, wrong, failures = {}, set(), {}
    for p in passes:
        for op, res in zip(ops, p["ops"]):
            if res["digest"] != digests.setdefault(op.label, res["digest"]):
                res["problems"].append("output bytes differ between passes")
                res["wrong"] = True
            if res["wrong"]:
                wrong.add(op.label)
            if res["problems"]:
                failures.setdefault(op.label, res["problems"])
    return {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "wall": [p["wall"] for p in warm],
        "cpu": [p["cpu"] for p in warm],
        "wall_ref": [p["wall_ref"] for p in warm],
        "cpu_ref": [p["cpu_ref"] for p in warm],
        "untraced_wall": [p["wall"] for p in untraced],
        "traced_wall": [p["wall"] for p in traced],
        "untraced_wall_ref": [p["wall_ref"] for p in untraced],
        "traced_wall_ref": [p["wall_ref"] for p in traced],
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(1 for p in passes for res in p["ops"] if res["problems"]),
        "wrong": sorted(wrong),
        "failures": failures,
        "digests": {label: list(d) for label, d in digests.items()},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "xspectra_file": os.path.abspath(xspectra.__file__),
    }


if __name__ == "__main__":
    print(json.dumps(session(json.loads(sys.argv[1]))))
