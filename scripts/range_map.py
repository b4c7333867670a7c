#!/usr/bin/env python3
"""Map the accepted parameter range: run each command on a grid of models
through ``xspectra.cli.main``, in-process by ``output_digests.run``, and
record one row per run.

The grid, every point of which ``validate_params`` accepts:

  - radial: a in {0.1, 0.5, 1, 2, 2.5, 5, 10}, k in {0.5, 1.75, 4},
    eps in {0, 0.5, 1.2, 3};
  - Scarf: (a, b) in {(-0.25, -0.4), (0.25, 0.5), (1.75, 3), (3, 1.75),
    (0.5, 5), (5, 0.5), (-0.3, -0.1)}, k in {0.5, 1.25, 3},
    eps in {0, 0.5, 1, 2}, both branches.

Each model runs ``spectrum --nmax 4`` (not a shifted Scarf model, which
has no grid spectrum and exits 2 by design) and ``verify`` with each
suite that reads the model: ``pct``, ``hermiticity`` (which exits 2 at
eps = 0 by design), ``spectra`` and ``residuals``.  A row holds the
command, the model, the exit code, the names of the failing checks and
the other stderr lines (``error:`` lines and convergence warnings); an
exception that escapes ``main`` is recorded with the exit code
``"traceback"`` and the function it was raised in.  No timing and no
measured value is recorded, so a rerun writes the same bytes.

    PYTHONPATH=src python scripts/range_map.py --out RANGE_map.json
"""

import argparse
import json
import sys
from collections import Counter

from output_digests import run

RADIAL_A = (0.1, 0.5, 1, 2, 2.5, 5, 10)
RADIAL_K = (0.5, 1.75, 4)
RADIAL_EPS = (0, 0.5, 1.2, 3)
SCARF_AB = ((-0.25, -0.4), (0.25, 0.5), (1.75, 3), (3, 1.75), (0.5, 5), (5, 0.5), (-0.3, -0.1))
SCARF_K = (0.5, 1.25, 3)
SCARF_EPS = (0, 0.5, 1, 2)

COMMANDS = (
    ("spectrum", "--nmax", "4"),
    ("verify", "--suite", "pct"),
    ("verify", "--suite", "hermiticity"),
    ("verify", "--suite", "spectra"),
    ("verify", "--suite", "residuals"),
)


def grid_models() -> list:
    """Every model of the grid, as its model flags."""
    out = [
        {"family": "radial", "a": a, "k": k, "eps": eps}
        for a in RADIAL_A for k in RADIAL_K for eps in RADIAL_EPS
    ]
    out += [
        {"family": "scarf", "a": a, "b": b, "k": k, "eps": eps, "branch": branch}
        for a, b in SCARF_AB for k in SCARF_K for eps in SCARF_EPS
        for branch in ("sin", "cos")
    ]
    return out


def model_argv(model: dict) -> list:
    return [
        piece for name, value in model.items()
        for piece in (f"--{name}", value if isinstance(value, str) else f"{value:g}")
    ]


def commands_for(model: dict) -> list:
    """The commands run on ``model``."""
    no_grid_spectrum = model["family"] == "scarf" and model["eps"] != 0
    return [c for c in COMMANDS if not (c[0] == "spectrum" and no_grid_spectrum)]


def map_row(command, model: dict) -> dict:
    """Run ``command`` on ``model`` and read its exit code, failing
    checks and other stderr lines."""
    done = run([*command, *model_argv(model)])
    lines = done["stderr"].splitlines()
    if done["exception"]:
        lines.append("{} in {}: {}".format(*done["exception"]))
    failing = []
    for name, data in done["files"].items():
        if name.endswith(".manifest.json"):
            failing += [c["name"] for c in json.loads(data)["checks"] if c["status"] == "fail"]
    return {
        "command": " ".join(command),
        "model": model,
        "exit": done["exit"],
        "failing": failing,
        # what `failing` does not already name
        "diagnostics": [line for line in lines if not line.startswith("warn: check failed:")],
    }


def range_map(models) -> list:
    return [map_row(command, model) for model in models for command in commands_for(model)]


def summary(rows) -> dict:
    """Per command and family, the number of runs with each exit code."""
    counts = {}
    for row in rows:
        key = f"{row['command']} {row['model']['family']}"
        counts.setdefault(key, Counter())[str(row["exit"])] += 1
    return {key: dict(sorted(c.items())) for key, c in sorted(counts.items())}


def render(rows) -> str:
    """The map as JSON with one run per line, so that diffs read per run."""
    runs = ",\n".join("  " + json.dumps(row, sort_keys=True) for row in rows)
    head = json.dumps(summary(rows), indent=1, sort_keys=True).replace("\n", "\n ")
    return f'{{\n "summary": {head},\n "runs": [\n{runs}\n ]\n}}\n'


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="RANGE_map.json", help="output path")
    args = ap.parse_args()
    rows = range_map(grid_models())
    with open(args.out, "w", newline="") as handle:
        handle.write(render(rows))
    for key, counts in summary(rows).items():
        print(key, " ".join(f"exit {code}: {n}" for code, n in counts.items()))
    return 1 if any(row["exit"] == "traceback" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
