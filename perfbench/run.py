"""xspectra benchmark: drives the CLI through ``xspectra.cli.main``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Each run starts fresh interpreters one after another (sessions, see
``worker.py``); each session sets up (import plus one cold pass) and
then measures warm passes.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced passes.

``setup_s``, ``wall_s`` and ``cpu_s`` are seconds at the reference
speed of ``calibrate.py``: a reference kernel runs between ops and, on
a timer, during them, and each stretch of op time is scaled by the
kernel's reference time over its measured time around that stretch.
That takes out the host's drifting CPU speed.  The raw seconds are in
the detail line.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment, sample counts and quartiles, and any op failures.

``correct`` is false when an op gave a quiet wrong answer (see
``workloads.gate``); ops that fail loudly, by exit code, count in
``failed`` and lower ``passed_ops_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads
from tracer import PER_LAYER

# fresh-interpreter sessions per untraced run; set-up time is their median
SESSIONS = 3
# a run must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "passed_ops_ratio": "ratio",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def _quartiles(values: list) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha(root: str):
    """HEAD of the checkout, read from ``.git`` without leaving it; None
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_sessions(args, root: str, workdir: str) -> list:
    deadline = time.monotonic() + RUN_LIMIT_S
    count = 1 if args.trace else SESSIONS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["XSPECTRA_THREADS"] = workloads.THREADS[args.workload]
    results = []
    for _ in range(count):
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "workdir": workdir,
            "seconds": args.seconds / count,
            "trace": bool(args.trace),
            "calib_wall": calibrate.measure(workloads.KERNEL[args.workload])[0],
            "spawn_monotonic": time.monotonic(),
        }
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"session exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def summarise(args, root: str, sessions: list) -> tuple:
    src = os.path.join(root, "src") + os.sep
    for s in sessions:
        if not s["xspectra_file"].startswith(src):
            raise RuntimeError(f"imported xspectra from {s['xspectra_file']}, not {src}")
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    wrong = sorted({label for s in sessions for label in s["wrong"]})
    agree = all(s["digests"] == sessions[0]["digests"] for s in sessions)
    correct = not wrong and agree

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "sessions": len(sessions),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": sessions[0]["python"],
            "numpy": sessions[0]["numpy"],
            "git_sha": _git_sha(root),
            "XSPECTRA_THREADS": workloads.THREADS[args.workload],
        },
        "failures": {k: v for s in sessions for k, v in s["failures"].items()},
        "wrong_ops": wrong,
        "digests_agree_across_sessions": agree,
    }
    if args.trace:
        layers = [m for s in sessions for m in s["layers"]]
        # counts repeat exactly from pass to pass; median_low keeps them whole
        values = {k: (statistics.median if unit == "s" else statistics.median_low)(
                      [m[k] for m in layers])
                  for k, unit in PER_LAYER.items() if k != "trace.overhead_s"}
        traced = [w for s in sessions for w in s["traced_wall_ref"]]
        untraced = [w for s in sessions for w in s["untraced_wall_ref"]]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        detail["samples"] = {
            "traced_wall_s": _quartiles(traced),
            "untraced_wall_s": _quartiles(untraced),
            "raw_traced_wall_s": _quartiles([w for s in sessions for w in s["traced_wall"]]),
            "raw_untraced_wall_s": _quartiles([w for s in sessions for w in s["untraced_wall"]]),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        wall = [w for s in sessions for w in s["wall_ref"]]
        cpu = [c for s in sessions for c in s["cpu_ref"]]
        setup = [s["setup_ref"] for s in sessions]
        rss = [s["peak_rss_mb"] for s in sessions]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": statistics.median(rss),
            "passed_ops_ratio": (attempted - failed) / attempted,
        }
        detail["samples"] = {
            "wall_s": _quartiles(wall), "cpu_s": _quartiles(cpu),
            "setup_s": _quartiles(setup), "peak_rss_mb": _quartiles(rss),
            "raw_wall_s": _quartiles([w for s in sessions for w in s["wall"]]),
            "raw_cpu_s": _quartiles([c for s in sessions for c in s["cpu"]]),
            "raw_setup_s": _quartiles([s["setup_s"] for s in sessions]),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xspectra", "cli.py")):
        sys.stderr.write("error: run from the root of an xspectra source checkout "
                         "(src/xspectra/cli.py not found)\n")
        return 2
    # a fixed path: manifests record it, so their size must not vary by run
    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        sessions = run_sessions(args, root, workdir)
        detail, result = summarise(args, root, sessions)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
