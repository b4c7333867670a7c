#!/usr/bin/env python3
"""Digest what a fixed list of CLI commands writes, so two trees can be
compared byte for byte.

Each command runs in-process through ``xspectra.cli.main``, in a fresh
empty temporary directory (:func:`run`, which ``range_map.py`` shares),
and gives one JSON line: its argv, its exit code, and the sha256 of its
stdout, of its stderr and of every file it wrote.  An exception that
escapes ``main`` is recorded with the exit code ``"traceback"`` and its
type and the function it was raised in.
No timing and no measured value is recorded, so a rerun writes the
same bytes; run it on two trees and diff the outputs.

The commands: every verify suite at its defaults and at chosen models,
tables from 11 to 1e5 points across the block boundaries, spectra
Hermitian and shifted, the refusals of each subcommand, the seed-0 ops
of ``perfbench/workloads.py``, and the large-index and tiny-step runs
that once ended in an OverflowError or a ZeroDivisionError traceback.

    PYTHONPATH=src python scripts/output_digests.py --out digests.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

from xspectra import cli

RADIAL = ("--family", "radial", "--a", "2", "--k", "1.75")
SHIFTED_RADIAL = (*RADIAL, "--eps", "1.2")
SCARF = ("--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25")
# the benchmark's seed-0 models, spelled as perfbench/workloads.py spells them
# (tests/test_scripts.py checks that every seed-0 op is in COMMANDS)
BENCH_RADIAL = ("--family", "radial", "--a", "2.0", "--k", "1.75", "--eps", "1.2")
BENCH_SCARF = ("--family", "scarf", "--a", "1.75", "--b", "3.0", "--k", "1.25", "--eps", "1.0")

COMMANDS = (
    *(("verify", "--suite", suite) for suite in (
        "all", "zeros", "orthogonality", "pct", "hermiticity", "spectra", "residuals")),
    ("verify", "--suite", "all", "--family", "radial"),
    ("verify", "--suite", "all", "--family", "scarf"),
    ("verify", "--suite", "spectra", "--family", "scarf"),
    ("verify", "--suite", "hermiticity", "--family", "radial", "--eps", "0"),
    ("verify", "--suite", "residuals", "--family", "radial", "--eps", "0"),
    ("verify", "--suite", "pct", "--family", "scarf", "--a", "0.5", "--b", "1.5"),
    ("table", *SHIFTED_RADIAL, "--points", "11"),
    # one row past a full block of 6 columns, 9216 // 6 = 1536 rows
    ("table", *RADIAL, "--psi", "1", "--points", "1537"),
    ("table", *SHIFTED_RADIAL, "--psi", "1", "--points", "1537"),
    ("table", *SCARF, "--eps", "1", "--branch", "cos", "--psi", "2", "--points", "3073"),
    ("table", *SHIFTED_RADIAL, "--psi", "1,2,3,4,5,6", "--points", "20001"),
    ("table", *SHIFTED_RADIAL),
    ("table", *SHIFTED_RADIAL, "--xmax", "1e200"),
    ("table", *RADIAL, "--psi", "145"),
    ("table", *RADIAL, "--xmin", "-1"),
    ("spectrum", *SHIFTED_RADIAL),
    ("spectrum", *RADIAL),
    ("spectrum", *SCARF),
    ("spectrum", *SCARF, "--grid-points", "50"),
    ("spectrum", *SHIFTED_RADIAL, "--lo", "-8", "--hi", "9", "--grid-points", "700"),
    ("spectrum", *RADIAL, "--lo", "-1"),
    ("spectrum", *SCARF, "--eps", "0", "--lo", "1", "--hi", "0.5"),
    # a grid step whose square underflows, once a ZeroDivisionError traceback
    ("spectrum", *RADIAL, "--nmax", "1", "--lo", "1e-300", "--hi", "1e-299",
     "--grid-points", "100"),
    ("spectrum", *SCARF, "--eps", "1"),
    # the seed-0 benchmark ops
    ("verify", "--suite", "zeros", "--a", "5", "--nmax", "12"),
    ("table", *BENCH_RADIAL, "--psi", "1,2,3", "--points", "100000"),
    ("table", *BENCH_SCARF, "--psi", "1,2,3", "--points", "100000"),
    ("spectrum", *BENCH_RADIAL, "--nmax", "3"),
    ("spectrum", *BENCH_RADIAL, "--nmax", "6", "--grid-points", "3000"),
    # a Hermitian state table beside them
    ("table", "--family", "radial", "--a", "2", "--k", "1.75", "--psi", "1,2,3",
     "--points", "100000"),
    # each once a traceback: a member, a split or a map power out of the
    # float range, and E_1 - E_2 rounded to zero
    ("verify", "--suite", "zeros", "--a", "1e155", "--nmax", "3"),
    ("verify", "--suite", "orthogonality", "--a", "1e155", "--nmax", "2"),
    ("table", "--family", "scarf", "--a", "1e200", "--b", "3e200", "--k", "1",
     "--psi", "1", "--points", "3"),
    ("verify", "--suite", "pct", "--family", "radial", "--a", "1e155"),
    ("verify", "--suite", "pct", "--family", "scarf", "--a", "1e200", "--b", "3e200"),
    ("verify", "--suite", "pct", "--family", "scarf", "--k", "1e200"),
    ("verify", "--suite", "pct", "--family", "radial", "--a", "1e20"),
)


def run(argv) -> dict:
    """Run ``argv`` through ``cli.main`` in a fresh empty temporary
    directory and return what it left: ``exit``, the exit code or
    ``"traceback"``; ``exception``, the type, function and message of an
    exception that escaped ``main``, or None; ``stdout`` and ``stderr``;
    and ``files``, the bytes of each file it wrote, by name."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception as exc:
                    code = "traceback"
                    where = traceback.extract_tb(exc.__traceback__)[-1].name
                    exception = (type(exc).__name__, where, str(exc))
            files = {}
            for name in sorted(os.listdir(".")):
                with open(name, "rb") as handle:
                    files[name] = handle.read()
        finally:
            os.chdir(here)
    return {"exit": code, "exception": exception, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv) -> dict:
    """One line of the output: ``argv``'s exit code and the sha256 of
    its stdout, its stderr and each file it wrote."""
    done = run(argv)
    row = {"argv": list(argv), "exit": done["exit"]}
    if done["exception"]:
        row["exception"] = "{} in {}".format(*done["exception"])
    row["stdout"] = _sha256(done["stdout"].encode())
    row["stderr"] = _sha256(done["stderr"].encode())
    row["files"] = {name: _sha256(data) for name, data in done["files"].items()}
    return row


def render(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="-", help="output path, or - for stdout")
    args = ap.parse_args()
    text = render(digest(argv) for argv in COMMANDS)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
