"""Workloads of the xspectra benchmark and the correctness gate of each op.

A workload is a fixed list of CLI invocations (ops) that makes up one
pass.  Seed 0 reproduces the reference parameters and is checked
against golden digests; any other seed perturbs only the model
parameters of the ``table`` and ``spectrum`` ops, inside ranges where
the CLI's own checks pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("verify_all", "table_large", "spectrum_complex")

# XSPECTRA_THREADS each workload runs with; set explicitly so the
# caller's environment cannot change what is measured
THREADS = {"verify_all": "1", "table_large": "2", "spectrum_complex": "1"}

# the reference kernel of ``calibrate.py`` that matches each workload's work
KERNEL = {"verify_all": "sturm", "table_large": "csv", "spectrum_complex": "lu"}

# sha256 of the table CSVs at seed 0, recorded before any optimisation;
# identical for XSPECTRA_THREADS=1 and 2
GOLDEN_CSV_SHA256 = {
    "table-radial": "58f945cd206655e6772e10b26f2bd62c107e6d31b037aadc286df85efcc22b58",
    "table-scarf": "6e421739654de323d92b9a1e5fa58137f1effe435f19cda70b0c17de5deaaefe",
}

# the manifest contract: frozen top-level keys
FROZEN_KEYS = ("command", "parameters", "outputs", "checks")

_RADIAL = {"a": 2.0, "k": 1.75, "eps": 1.2}
_SCARF = {"a": 1.75, "b": 3.0, "k": 1.25, "eps": 1.0}

# half-widths of the uniform perturbation around the reference values;
# parameters left out keep their reference value
_RADIAL_SPREAD = {"a": 0.3, "k": 0.2, "eps": 0.15}
_SCARF_SPREAD = {"a": 0.2, "b": 0.2, "k": 0.1, "eps": 0.15}
# a stays 2: the operator has a second series k^2 (2m + 3 - a) / 2 that
# meets the formula levels at integer a, and for a just off 2 inverse
# iteration from E_n + 0.3i can lock onto it and fail level-n-rel
_SPECTRUM_SPREAD = {"k": 0.2, "eps": 0.15}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    manifest: str
    csv: Optional[str] = None


def _perturbed(ref: dict, spread: dict, rng: random.Random, seed: int) -> dict:
    if seed == 0:
        return dict(ref)
    return {k: round(v + rng.uniform(-spread[k], spread[k]), 4) if k in spread else v
            for k, v in ref.items()}


def _model_flags(family: str, p: dict) -> list:
    flags = ["--family", family]
    for name in ("a", "b", "k", "eps"):
        if name in p:
            flags += [f"--{name}", repr(p[name])]
    return flags


def build(workload: str, seed: int, workdir: str) -> list:
    """The ops of one pass, writing into ``workdir``."""
    rng = random.Random(seed)
    radial = _perturbed(_RADIAL, _RADIAL_SPREAD, rng, seed)
    scarf = _perturbed(_SCARF, _SCARF_SPREAD, rng, seed)
    spectrum = _perturbed(_RADIAL, _SPECTRUM_SPREAD, rng, seed)

    def path(name):
        return os.path.join(workdir, name)

    if workload == "verify_all":
        # the degree-12 member is outside what the SVD construction can
        # build; the op stays so that defect is measured, not hidden
        return [
            Op("verify-all", ("verify", "--suite", "all", "--manifest", path("verify-all.json")),
               path("verify-all.json")),
            Op("verify-zeros-a5-n12",
               ("verify", "--suite", "zeros", "--a", "5", "--nmax", "12",
                "--manifest", path("verify-zeros.json")),
               path("verify-zeros.json")),
        ]
    if workload == "table_large":
        ops = []
        for label, family, p in (("table-radial", "radial", radial), ("table-scarf", "scarf", scarf)):
            csv = path(f"{label}.csv")
            argv = ["table"] + _model_flags(family, p) + [
                "--psi", "1,2,3", "--points", "100000", "--out", csv,
                "--manifest", path(f"{label}.json")]
            ops.append(Op(label, tuple(argv), path(f"{label}.json"), csv))
        return ops
    if workload == "spectrum_complex":
        ops = []
        for label, extra in (("spectrum-n3", ["--nmax", "3"]),
                             ("spectrum-n6-g3000", ["--nmax", "6", "--grid-points", "3000"])):
            csv = path(f"{label}.csv")
            argv = ["spectrum"] + _model_flags("radial", spectrum) + extra + [
                "--out", csv, "--manifest", path(f"{label}.json")]
            ops.append(Op(label, tuple(argv), path(f"{label}.json"), csv))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return hashlib.file_digest(handle, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def clear_outputs(op: Op) -> None:
    """Remove what an earlier pass left, so a missing output shows."""
    for path in (op.manifest, op.csv):
        if path and os.path.exists(path):
            os.unlink(path)


def gate(op: Op, code: int, seed: int) -> dict:
    """Check one op after it ran.

    ``problems`` makes the op count as failed.  ``wrong`` marks a quiet
    wrong answer: the exit code says success while the manifest does
    not, or the CSV bytes differ from the golden digest.  A loud failure
    (non-zero exit) is failed but not wrong.
    """
    problems = []
    wrong = False
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        with open(op.manifest, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        doc = None
    if not isinstance(doc, dict):
        problems.append("manifest missing or unreadable")
        wrong |= code == 0
    else:
        missing = [k for k in FROZEN_KEYS if k not in doc]
        if missing:
            problems.append(f"manifest lacks {','.join(missing)}")
            wrong |= code == 0
        failed_checks = [row.get("name") for row in doc.get("checks", [])
                         if row.get("status") == "fail"]
        if failed_checks:
            problems.append(f"checks fail: {','.join(map(str, failed_checks))}")
            wrong |= code == 0
    csv_sha = _sha256(op.csv) if op.csv else None
    golden = GOLDEN_CSV_SHA256.get(op.label) if seed == 0 else None
    if golden is not None and csv_sha != golden:
        problems.append("csv differs from the golden digest")
        wrong = True
    written = sum(os.path.getsize(p) for p in (op.manifest, op.csv) if p and os.path.exists(p))
    return {
        "problems": problems,
        "wrong": wrong,
        "digest": (csv_sha, _sha256(op.manifest)),
        "bytes": written,
    }
