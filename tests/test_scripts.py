import os
import subprocess
import sys
from pathlib import Path

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
    for args in ((), ("--a", "0.5", "--b", "1.5")):
        done = run_script("check_rational_term.py", *args)
        assert done.returncode == 0, done.stderr
        assert "exact coefficient matches the product form" in done.stdout.splitlines()
