import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xspectra import cli, models, numerics
from xspectra.polycore import integrate

FIELD = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(args):
    return cli.main(args)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def reference_csv(header, columns):
    """The CSV text of the per-field writer the block writer replaced."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(cli._FMT % col[i] for col in columns))
    return "\n".join(lines) + "\n"


class TestWriter:
    @pytest.mark.parametrize(
        "rows", [1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1]
    )
    def test_bytes_match_per_field_formatting(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        # spectrum's column set: an integer level index, then floats
        header = ["n", "E_formula", "E_numeric", "abs_err", "rel_err"]
        columns = [np.arange(1, rows + 1)] + [
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            for _ in range(4)
        ]
        out = tmp_path / "w.csv"
        cli._write_csv(str(out), header, columns)
        assert out.read_text() == reference_csv(header, columns)

    def test_edge_values(self, tmp_path):
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7e308, -1.7e308])
        columns = [edge, edge[::-1], np.arange(len(edge))]
        out = tmp_path / "e.csv"
        cli._write_csv(str(out), ["a", "b", "i"], columns)
        text = out.read_text()
        assert text == reference_csv(["a", "b", "i"], columns)
        assert "nan,-1.6999999999999999e+308,0.0000000000000000e+00" in text
        assert "4.9406564584124654e-324," in text
        assert "-0.0000000000000000e+00," in text

    def test_failed_write_keeps_old_file(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"old bytes\n")

        def chunks():
            yield "x\n"
            yield "1.0\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError):
            cli._write_atomic(str(out), chunks())
        assert out.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob(".xspectra-*"))

    @pytest.mark.parametrize("mask", [0o022, 0o077])
    def test_outputs_follow_the_umask(self, tmp_path, mask):
        out = tmp_path / "u.csv"
        old = os.umask(mask)
        try:
            assert run([
                "table", "--family", "radial", "--a", "2", "--k", "1.75",
                "--points", "11", "--out", str(out),
            ]) == 0
        finally:
            os.umask(old)
        for path in (out, tmp_path / "u.manifest.json"):
            assert path.stat().st_mode & 0o777 == 0o666 & ~mask


class TestTable:
    def test_deterministic_and_thread_invariant(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--psi", "1,2",
        ]
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_field_format(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run([
            "table", "--family", "scarf", "--a", "1.75", "--b", "3",
            "--k", "1.25", "--eps", "1", "--psi", "2", "--points", "11",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().split("\n")
        assert lines[-1] == ""  # trailing newline
        assert lines[0] == "x,re_V,im_V,re_psi_2,im_psi_2,abs2_psi_2"
        for line in lines[1:-1]:
            for field in line.split(","):
                assert FIELD.match(field), field

    def test_imaginary_part_is_odd(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--xmin", "-4", "--xmax", "4", "--points", "401",
            "--out", str(out),
        ]) == 0
        data = read_csv(out)
        im = data["im_V"]
        scale = np.max(np.abs(im))
        assert np.max(np.abs(im + im[::-1])) <= 1e-12 * scale

    def test_density_column_integrates_to_one(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run([
            "table", "--family", "scarf", "--a", "1.75", "--b", "3",
            "--k", "1.25", "--psi", "1", "--points", "2001", "--out", str(out),
        ]) == 0
        data = read_csv(out)
        total = np.trapezoid(data["abs2_psi_1"], data["x"])
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_manifest_structure(self, tmp_path):
        out = tmp_path / "m.csv"
        manifest = tmp_path / "m.manifest.json"
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--out", str(out),
        ]) == 0
        doc = json.loads(manifest.read_text())
        assert set(doc) == {"command", "parameters", "outputs", "checks"}
        assert doc["command"] == "table"
        assert str(out) in doc["outputs"] and str(manifest) in doc["outputs"]
        for check in doc["checks"]:
            assert set(check) == {"name", "status", "measured", "tolerance"}
            assert isinstance(check["measured"], float)

    # sha256 of both state tables at the default 401 points: a changed bit
    # of a member (Jacobi lead, kept Laguerre SVD coefficients) or of gamma
    # shows here, not only in the benchmark's golden digests
    @pytest.mark.parametrize("args, digest", [
        (["--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2"],
         "8c944570de55d453272e0a48e3eb2cd40d9b766d340ad4598ff5fcec6a3669e0"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--eps", "1"],
         "726b34fceb9fb8f232d8d478a2585bc5fadce19de92a0c50c683d7c278df0bbf"),
    ], ids=["radial", "scarf"])
    def test_state_table_bytes_are_pinned(self, tmp_path, args, digest):
        out = tmp_path / "pin.csv"
        assert run(["table"] + args + ["--psi", "1,2,3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rejects_bad_grid(self, tmp_path, capsys):
        code = run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--xmin", "3", "--xmax", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSpectrum:
    def test_real_radial(self, tmp_path):
        out = tmp_path / "sp.csv"
        manifest = tmp_path / "sp.manifest.json"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--out", str(out), "--manifest", str(manifest),
        ]) == 0
        data = read_csv(out)
        assert list(data.dtype.names) == [
            "n", "E_formula", "E_numeric", "abs_err", "rel_err",
        ]
        assert np.all(data["rel_err"] <= 1e-3)
        doc = json.loads(manifest.read_text())
        assert doc["parameters"]["tolerances"]["spectrum-rel"] == 1e-3

    def test_complex_radial_adds_imaginary_column(self, tmp_path):
        out = tmp_path / "spc.csv"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "2", "--out", str(out),
        ]) == 0
        data = read_csv(out)
        assert "im_lambda" in data.dtype.names
        assert np.all(np.abs(data["im_lambda"]) <= 1e-6 * np.abs(data["E_numeric"]))

    def test_complex_residuals_at_the_convergence_edge(self, tmp_path):
        # the levels stop just under the absolute 1e-8 residual target,
        # which is also the check tolerance (up to 8.4e-9 here, 9.96e-9 in
        # seed sweeps), so a rounding change in the solver can tip one over
        manifest = tmp_path / "edge.json"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "6", "--grid-points", "3000",
            "--out", str(tmp_path / "edge.csv"), "--manifest", str(manifest),
        ]) == 0
        doc = json.loads(manifest.read_text())
        resid = [c for c in doc["checks"] if c["name"].startswith("eigen-residual-")]
        assert len(resid) == 6
        assert all(c["measured"] <= 1e-8 for c in resid)

    def test_non_finite_shift_is_usage_error(self, tmp_path, capsys):
        code = run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "1", "--sigma-imag", "nan",
            "--out", str(tmp_path / "nan.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "warn:" not in err
        assert not (tmp_path / "nan.csv").exists()

    def test_shift_retry_is_reported(self, tmp_path, capsys, monkeypatch):
        solve = numerics.eigen_near_shift

        def retried(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), shift_retries=1)

        monkeypatch.setattr(numerics, "eigen_near_shift", retried)
        manifest = tmp_path / "r.json"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "2", "--out", str(tmp_path / "r.csv"),
            "--manifest", str(manifest),
        ]) == 0
        err = capsys.readouterr().err
        assert "warn: level 1: 1 singular factorization" in err
        assert "warn: level 2: 1 singular factorization" in err
        doc = json.loads(manifest.read_text())
        assert [c["name"] for c in doc["checks"]] == [
            "eigen-residual-1", "im-ratio-1", "eigen-residual-2", "im-ratio-2",
            "level-1-rel", "level-2-rel",
        ]

    def test_shifted_scarf_is_refused(self, tmp_path, capsys):
        code = run([
            "spectrum", "--family", "scarf", "--a", "1.75", "--b", "3",
            "--k", "1.25", "--eps", "1", "--out", str(tmp_path / "n.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_tolerance_override_flips_outcome(self, tmp_path):
        args = [
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--grid-points", "600", "--out", str(tmp_path / "w.csv"),
        ]
        assert run(args) == 0
        assert run(args + ["--tol-spectrum-rel", "1e-12"]) == 1


class TestVerify:
    def test_zeros_suite(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for nmax in ("8", "12"):
            assert run(["verify", "--suite", "zeros", "--a", "5", "--nmax", nmax]) == 0
            out = capsys.readouterr().out
            assert "PASS zero-pattern-a5" in out
            doc = json.loads((tmp_path / "verify.manifest.json").read_text())
            assert all(c["status"] == "pass" for c in doc["checks"])
        assert doc["parameters"]["tolerances"]["residual"] == 1e-6

    def test_hermiticity_suite_default_parameters(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "hermiticity"]) == 0

    def test_pct_suite_records_scarf_coefficient(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "pct", "--family", "scarf"]) == 0
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        names = [c["name"] for c in doc["checks"]]
        assert "scarf-rational-matches-minus-8ab" in names
        assert "scarf-rational-excludes-alternative" in names

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "everything"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tolerance_override_fails_suite(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run([
            "verify", "--suite", "orthogonality", "--tol-gram-offdiag", "1e-16",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "warn:" in captured.err

    def test_orthogonality_suite_at_nmax_8(self, tmp_path, monkeypatch):
        # each Gram matrix stops on its largest entry, not entry by entry
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "orthogonality", "--nmax", "8"]) == 0

    def test_one_integral_per_gram_matrix(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "all"]) == 0  # fills the norm caches
        calls = []

        def counted(f, q):
            calls.append(q.domain_map)
            return integrate(f, q)

        monkeypatch.setattr(numerics, "integrate", counted)
        monkeypatch.setattr(models, "integrate", counted)
        assert run(["verify", "--suite", "all"]) == 0
        # orthogonality: two Laguerre indices on two maps, one Jacobi matrix
        assert len(calls) == 5


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["table", "spectrum"])
    def test_radial_rejects_branch(self, tmp_path, capsys, command):
        out = tmp_path / "r.csv"
        manifest = tmp_path / "r.json"
        assert run([
            command, "--family", "radial", "--a", "2", "--k", "1.75",
            "--branch", "cos", "--out", str(out), "--manifest", str(manifest),
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists() and not manifest.exists()

    def test_missing_required_flags(self, capsys):
        assert run(["table", "--family", "radial", "--k", "1.75"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_physics_parameters(self, capsys):
        assert run(["table", "--family", "radial", "--a", "-2", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert run(["tabulate"]) == 2

    def test_table_takes_no_tolerance_flags(self, tmp_path, capsys):
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--tol-residual", "1", "--out", str(tmp_path / "t.csv"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_spectrum_rejects_nmax_below_one(self, tmp_path, capsys, nmax):
        out = tmp_path / "n.csv"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", nmax, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("nmax", ["0", "-2"])
    def test_verify_rejects_nmax_below_one(self, tmp_path, capsys, monkeypatch, nmax):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "zeros", "--nmax", nmax]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "PASS" not in captured.out
        assert not (tmp_path / "verify.manifest.json").exists()

    def test_bad_psi_list(self, tmp_path, capsys):
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--psi", "1,zero", "--out", str(tmp_path / "p.csv"),
        ]) == 2


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "xspectra", "table", "--family", "radial",
         "--a", "2", "--k", "1.75", "--points", "11", "--out", "m.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "m.csv").read_text().startswith("x,re_V,im_V\n")
    assert (tmp_path / "m.manifest.json").is_file()
