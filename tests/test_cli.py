import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xspectra import cli, models, numerics
from xspectra.polycore import integrate

FIELD = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run(args):
    return cli.main(args)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def failed_check_lines(manifest):
    """The `warn:` line of each failing row of a manifest, in its order."""
    doc = json.loads(Path(manifest).read_text())
    return [
        f"warn: check failed: {c['name']} measured {c['measured']:.6e}"
        for c in doc["checks"] if c["status"] == "fail"
    ]


def reference_csv(header, columns):
    """The CSV bytes of the per-field writer the block writer replaced."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(cli._FMT % col[i] for col in columns))
    return ("\n".join(lines) + "\n").encode("ascii")


def block_rows(cols):
    """The rows of each full block the writer asks for at ``cols`` columns."""
    return cli._BLOCK_CELLS // cols


def csv_bytes(header, columns):
    """The CSV the writer makes of whole ``columns``, handed to it one
    block of ``block_rows`` rows at a time."""
    step = block_rows(len(header))
    blocks = (np.column_stack([c[start:start + step] for c in columns])
              for start in range(0, len(columns[0]), step))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "w.csv")
        cli._write_csv(argparse.Namespace(out=out, manifest=None), "w", header, blocks)
        return Path(out).read_bytes()


class TestWriter:
    @pytest.mark.parametrize(
        "rows", [1, block_rows(5) - 1, block_rows(5), block_rows(5) + 1]
    )
    def test_bytes_match_per_field_formatting(self, rows):
        rng = np.random.default_rng(rows)
        # spectrum's column set: an integer level index, then floats
        header = ["n", "E_formula", "E_numeric", "abs_err", "rel_err"]
        columns = [np.arange(1, rows + 1)] + [
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            for _ in range(4)
        ]
        assert csv_bytes(header, columns) == reference_csv(header, columns)

    def test_edge_values(self):
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7e308, -1.7e308])
        columns = [edge, edge[::-1], np.arange(len(edge))]
        text = csv_bytes(["a", "b", "i"], columns)
        assert text == reference_csv(["a", "b", "i"], columns)
        assert b"nan,-1.6999999999999999e+308,0.0000000000000000e+00" in text
        assert b"4.9406564584124654e-324," in text
        assert b"-0.0000000000000000e+00," in text

    def test_failed_write_keeps_old_file(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"old bytes\n")

        def chunks():
            yield b"x\n"
            yield b"1.0\n"
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


def encoded(columns):
    header = [f"c{i}" for i in range(len(columns))]
    return csv_bytes(header, columns), reference_csv(header, columns)


def benchmark_workloads(monkeypatch):
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads


def count_fallbacks(monkeypatch):
    calls = []
    exact = cli._exact_field

    def counted(value):
        calls.append(value)
        return exact(value)

    monkeypatch.setattr(cli, "_exact_field", counted)
    return calls


class TestBlockEncoder:
    # st.floats() draws from every double: NaN, +-inf, +-0, subnormals
    @given(hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 6)),
        elements=st.floats(),
    ))
    def test_any_doubles_match_per_field_formatting(self, table):
        got, want = encoded(list(table.T))
        assert got == want

    def test_hard_doubles_match_per_field_formatting(self):
        powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
        near10 = []
        for k in range(-323, 309):
            p = float(f"1e{k}")
            below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
            near10 += [
                np.nextafter(below, 0.0), below, p, above, np.nextafter(above, np.inf),
            ]
        bits = np.random.default_rng(12).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = np.concatenate([
            powers2, -powers2, near10, [2.0**-25], bits.view(np.float64),
        ])
        values = np.append(values, np.zeros(-len(values) % 5)).reshape(-1, 5)
        got, want = encoded(list(values.T))
        assert got == want
        # the double nearest 1e-274, scaled to 17 digits, lies 0.34 below
        # 10^16; 2^-25 is an exact tie at 17 digits and rounds to even
        assert b"9.9999999999999997e-275" in got
        assert b"2.9802322387695312e-08" in got

    def test_benchmark_tables_take_no_fallback(self, tmp_path, monkeypatch):
        # the seed-0 tables of the benchmark, at 1e5 points: a fallback
        # here would make the block path silently slow
        workloads = benchmark_workloads(monkeypatch)
        calls = count_fallbacks(monkeypatch)
        for op in workloads.build("table_large", 0, str(tmp_path)):
            assert run(list(op.argv)) == 0
            digest = hashlib.sha256(Path(op.csv).read_bytes()).hexdigest()
            assert digest == workloads.GOLDEN_CSV_SHA256[op.label]
        assert calls == []

    def test_hermitian_state_table_takes_no_fallback(self, tmp_path, monkeypatch):
        # beside the benchmark's shifted tables: a Hermitian radial table
        # has an im_V and im_psi column of zeros, decided as D = k = 0
        calls = count_fallbacks(monkeypatch)
        out = tmp_path / "h.csv"
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75", "--psi", "1,2,3",
            "--points", "100000", "--out", str(out),
        ]) == 0
        assert calls == []
        rows = out.read_bytes().split(b"\n")
        assert rows[1].split(b",")[2] == b"0.0000000000000000e+00"

    def test_cells_next_to_a_power_of_ten_take_the_fallback(self, monkeypatch):
        # log10 gives 5 for the doubles just under 1e5, whose 17 digits
        # start 9.99; the doubles nearest 1e-243 and 1e-79 lie under them
        # and their 17 digits round up to 10^17, printing as 1.0e-243
        calls = count_fallbacks(monkeypatch)
        below = np.nextafter(1e5, 0.0)
        values = [below, np.nextafter(below, 0.0), 1e-243, 1e-79]
        got, want = encoded([np.array(values)])
        assert got == want
        assert calls == values
        assert b"1.0000000000000000e-243\n" in got
        assert b"9.9999999999999985e+04\n" in got

    def test_undecided_and_special_cells_take_the_fallback(self, monkeypatch):
        calls = count_fallbacks(monkeypatch)
        block = np.array([[2.0**-25, 1.5, np.nan], [0.0, -0.0, 5e-324]])
        got, want = encoded(list(block.T))
        assert got == want
        assert len(calls) == 3

    def test_table_blocks_are_stacked_one_at_a_time(self, tmp_path, monkeypatch):
        # the buffer behind each block holds that block only, so a table
        # keeps no full-length copy of its columns
        step, blocks = block_rows(9), []
        encode = cli._encode_block

        def recorded(block):
            owner = block
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            blocks.append((len(block), owner.nbytes // (8 * block.shape[1])))
            return encode(block)

        monkeypatch.setattr(cli, "_encode_block", recorded)
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2",
            "--psi", "1,2", "--points", str(2 * step + 5), "--out", str(tmp_path / "b.csv"),
        ]) == 0
        assert [n for n, _ in blocks] == [step, step, 5]
        assert all(held == n for n, held in blocks)


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

    # sha256 of the state tables at the default 401 points: a changed bit
    # of a member (Jacobi lead, kept Laguerre SVD coefficients), of gamma
    # or of the Scarf cell centre shows here, not only in the benchmark's
    # golden digests
    @pytest.mark.parametrize("args, digest", [
        (["--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2"],
         "8c944570de55d453272e0a48e3eb2cd40d9b766d340ad4598ff5fcec6a3669e0"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--eps", "1"],
         "726b34fceb9fb8f232d8d478a2585bc5fadce19de92a0c50c683d7c278df0bbf"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--eps", "1",
          "--branch", "cos"],
         "0aea720559c692d914db4f2282caac50961ed3c3de5acbc7799a2c9859c0cf37"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25"],
         "0d3f1e8d1e69dbb85e53f75f141a6ffca4c00a713eada4f5c50bb79ad653ed5d"),
    ], ids=["radial", "scarf", "scarf-cos", "scarf-hermitian"])
    def test_state_table_bytes_are_pinned(self, tmp_path, args, digest):
        out = tmp_path / "pin.csv"
        assert run(["table"] + args + ["--psi", "1,2,3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_each_state_evaluation_carries_every_level(self, tmp_path, monkeypatch):
        # the seed-0 benchmark tables ask for --psi 1,2,3 at 1e5 points;
        # each block's levels share one call, which evaluates their common
        # factors once
        workloads = benchmark_workloads(monkeypatch)
        evaluate = models.wavefunction
        calls = []

        def counted(m, n, x):
            calls.append(n)
            return evaluate(m, n, x)

        monkeypatch.setattr(models, "wavefunction", counted)
        for op in workloads.build("table_large", 0, str(tmp_path)):
            calls.clear()
            assert run(list(op.argv)) == 0
            assert calls and all(n == [1, 2, 3] for n in calls)
            digest = hashlib.sha256(Path(op.csv).read_bytes()).hexdigest()
            assert digest == workloads.GOLDEN_CSV_SHA256[op.label]

    @pytest.mark.parametrize("blocks", [
        [block_rows(12), block_rows(12), 7],
        [block_rows(12), block_rows(12), 1],
    ], ids=["tail", "one-row-tail"])
    @pytest.mark.parametrize("args, m", [
        (["--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2"],
         models.PotentialModel("radial_extended", 2.0, k=1.75, eps=1.2)),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--branch", "cos"],
         models.PotentialModel("scarf_extended", 1.75, 3.0, k=1.25, branch="cos")),
    ], ids=["radial", "scarf"])
    def test_blocks_give_the_whole_grid_bytes(self, tmp_path, monkeypatch, args, m, blocks):
        # each evaluator sees one block of rows at a time, and the CSV
        # holds the bytes of the whole grid evaluated at once
        points, out = sum(blocks), tmp_path / "t.csv"
        seen = {"potential": [], "wavefunction": []}
        for name, sizes in seen.items():
            def recorded(model, *rest, _evaluate=getattr(models, name), _sizes=sizes):
                _sizes.append(np.size(rest[-1]))
                return _evaluate(model, *rest)
            monkeypatch.setattr(models, name, recorded)
        assert run(["table", *args, "--psi", "1,2,3", "--points", str(points),
                    "--out", str(out)]) == 0
        assert seen == {"potential": blocks, "wavefunction": blocks}
        monkeypatch.undo()
        grid = np.linspace(*cli._default_range(m), points)
        v = models.potential(m, grid)
        header, columns = ["x", "re_V", "im_V"], [grid, v.real, v.imag]
        for n, psi in zip((1, 2, 3), models.wavefunction(m, [1, 2, 3], grid)):
            header += [f"re_psi_{n}", f"im_psi_{n}", f"abs2_psi_{n}"]
            columns += [psi.real, psi.imag, np.abs(psi) ** 2]
        assert out.read_bytes() == reference_csv(header, columns)

    # a refusal inside a block, after earlier blocks were written: the pole
    # at x = 0 lies in a later block of this grid, and the norm overflows
    # in the first
    @pytest.mark.parametrize("argv, code, line", [
        (["--xmin", "-3", "--xmax", "1", "--points", str(4 * 2**12 + 1)], 2,
         "error: centrifugal pole at x = 0"),
        (["--psi", "145", "--points", "11"], 1,
         "error: the squared norm of the degree-145 X1 Laguerre member at a = 2 "
         "is out of the float range"),
    ], ids=["pole", "overflow"])
    def test_refusal_mid_stream_keeps_the_old_files(
        self, tmp_path, monkeypatch, capsys, argv, code, line
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_bytes(b"old bytes\n")
        assert 3 * 2**12 >= block_rows(3)  # x = 0 is row 3 * 2**12, past the first block
        assert run(["table", "--family", "radial", "--a", "2", "--k", "1.75",
                    *argv, "--out", "t.csv"]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert (tmp_path / "t.csv").read_bytes() == b"old bytes\n"

    # radial eps = 0 over [-1, 1] with odd --points puts x = 0, the potential's
    # pole, on the grid, and the states refuse x <= 0: a grid of one block
    # reports the pole, which the potential meets first, and a longer grid
    # the states' refusal in its first block
    @pytest.mark.parametrize("points, line", [
        (11, "error: centrifugal pole at x = 0"),
        (2 * block_rows(6) + 1, "error: Hermitian radial states live on x > 0"),
    ], ids=["one-block", "two-blocks"])
    def test_two_refusals_report_the_earliest_block(
        self, tmp_path, monkeypatch, capsys, points, line
    ):
        monkeypatch.chdir(tmp_path)
        assert run(["table", "--family", "radial", "--a", "2", "--k", "1.75",
                    "--xmin", "-1", "--xmax", "1", "--points", str(points),
                    "--psi", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert list(tmp_path.iterdir()) == []

    def test_psi_is_parsed_before_any_evaluation(self, tmp_path, monkeypatch, capsys):
        # this grid meets the pole at x = 0, which was reported instead
        monkeypatch.chdir(tmp_path)
        assert run(["table", "--family", "radial", "--a", "2", "--k", "1.75",
                    "--xmin", "-1", "--xmax", "1", "--points", "11", "--psi", "x"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --psi wants comma-separated integers, got 'x'"
        ]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_memory_does_not_grow_with_points(self, tmp_path):
        # each table runs in a fresh interpreter, which prints its own peak
        # RSS: VmHWM, as ru_maxrss keeps the launching test process's peak
        # across exec.  Holding whole columns took 50.0 MB at 1e5 points
        # and 114.1 MB at 5e5, streamed blocks 35.1 and 38.2 MB (the
        # 5e5-point grid itself is 3.2 MB more)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "from xspectra import cli\n"
            "code = cli.main(['table', '--family', 'radial', '--a', '2', '--k', '1.75',\n"
            "                 '--eps', '1.2', '--psi', '1,2,3', '--points', sys.argv[1]])\n"
            "with open('/proc/self/status') as status:\n"
            "    kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "print(code, int(kb) / 1024.0)\n"
        )
        peaks = []
        for points in ("100000", "500000"):
            done = subprocess.run(
                [sys.executable, "-c", script, points],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            code, peak = done.stdout.split()
            assert code == "0"
            peaks.append(float(peak))
            (tmp_path / "radial_table.csv").unlink()
        assert peaks[1] <= peaks[0] + 8.0, peaks

    def test_rejects_bad_grid(self, tmp_path, capsys):
        code = run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--xmin", "3", "--xmax", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSpectrum:
    def test_shifted_spectrum_leaves_numpy_random_unimported(self, tmp_path):
        # the complex solver starts from a counter-based vector: importing
        # numpy.random and building a generator took 12-17 ms and 6.4 MB
        # of a fresh interpreter (2-core Xeon, numpy 2.4.6)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        script = (
            "import sys\n"
            "from xspectra import cli\n"
            "code = cli.main(['spectrum', '--family', 'radial', '--a', '2', '--k', '1.75',\n"
            "                 '--eps', '1.2', '--nmax', '2'])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

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

    # sha256 of the default real spectra; the complex spectra are not
    # pinned, as their last bits come from LAPACK's eig and qr
    @pytest.mark.parametrize("args, digest", [
        (["--family", "radial", "--a", "2", "--k", "1.75"],
         "f0785fd43a0f6da2d8410c051b38d2d5bdbd4be3ff91e05400301637febf0b18"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25"],
         "83d71a0925660d04aae76825445dc484792a5354eae90c4834d298d8516bba57"),
        (["--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--branch", "cos"],
         "83d71a0925660d04aae76825445dc484792a5354eae90c4834d298d8516bba57"),
    ], ids=["radial", "scarf-sin", "scarf-cos"])
    def test_real_spectrum_bytes_are_pinned(self, tmp_path, args, digest):
        out = tmp_path / "pin.csv"
        assert run(["spectrum"] + args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_complex_radial_adds_imaginary_column(self, tmp_path):
        out = tmp_path / "spc.csv"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "2", "--out", str(out),
        ]) == 0
        data = read_csv(out)
        assert "im_lambda" in data.dtype.names
        assert np.all(np.abs(data["im_lambda"]) <= 1e-6 * np.abs(data["E_numeric"]))

    def test_complex_radial_just_off_a_two_finds_the_formula_level(self, tmp_path):
        # the operator's second series k^2 (2m + 3 - a) / 2 puts a level
        # 0.065 below E_3 here, almost as near E_3 + 0.3i as E_3 itself
        manifest = tmp_path / "off.json"
        assert run([
            "spectrum", "--family", "radial", "--a", "2.0234", "--k", "1.6657",
            "--eps", "1.059", "--nmax", "6", "--grid-points", "3000",
            "--out", str(tmp_path / "off.csv"), "--manifest", str(manifest),
        ]) == 0
        doc = json.loads(manifest.read_text())
        level3 = next(c for c in doc["checks"] if c["name"] == "level-3-rel")
        assert level3["measured"] <= 1e-4

    def test_complex_residuals_at_the_convergence_edge(self, tmp_path):
        # the levels stop just under the absolute 1e-8 residual target,
        # which is also the check tolerance (up to 8.5e-9 here, 9.99e-9 in
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
        assert_parse_error(
            capsys.readouterr(), tmp_path, "argument --sigma-imag: must be finite, got 'nan'"
        )

    @pytest.mark.parametrize("offset", ["1e200", "1e300"])
    def test_far_shift_is_a_failed_check(self, tmp_path, capsys, offset):
        # inverse iteration from so far off the axis ended in numpy's
        # LinAlgError: the first iterate's norm underflowed to 0.  Which
        # far level it finds depends on the start vector, and so does
        # whether that level's im-ratio check fails too
        code = run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "1", "--sigma-imag", offset,
            "--out", str(tmp_path / "far.csv"),
        ])
        assert code == 1
        warned = failed_check_lines(tmp_path / "far.manifest.json")
        assert capsys.readouterr().err.splitlines() == warned
        # the residual check passes: only the level's position, and
        # possibly its im-ratio, fail
        names = [line.split()[3] for line in warned]
        assert names in (["level-1-rel"], ["im-ratio-1", "level-1-rel"])
        assert np.all(np.isfinite(read_csv(tmp_path / "far.csv")["E_numeric"]))

    def test_complex_check_rows(self, tmp_path, capsys):
        manifest = tmp_path / "r.json"
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--eps", "1.2", "--nmax", "2", "--out", str(tmp_path / "r.csv"),
            "--manifest", str(manifest),
        ]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(manifest.read_text())
        assert [c["name"] for c in doc["checks"]] == [
            "eigen-residual-1", "im-ratio-1", "eigen-residual-2", "im-ratio-2",
            "level-1-rel", "level-2-rel",
        ]

    def test_shifted_manifest_records_the_solver_settings(self, tmp_path):
        # the shift and the step cap decide which level inverse iteration
        # finds; a Hermitian spectrum reads neither
        args = ["spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--nmax", "1"]
        for eps, extra, want in (
            ("1.2", ["--iters", "40", "--sigma-imag", "0.25"], {"iters": 40, "sigma_imag": 0.25}),
            ("1.2", [], {"iters": 60, "sigma_imag": 0.3}),
            ("0", [], {}),
        ):
            manifest = tmp_path / "s.json"
            assert run(args + [
                "--eps", eps, *extra, "--grid-points", "600",
                "--out", str(tmp_path / "s.csv"), "--manifest", str(manifest),
            ]) == 0
            doc = json.loads(manifest.read_text())
            assert sorted(doc) == ["checks", "command", "outputs", "parameters"]
            got = {k: doc["parameters"][k] for k in ("iters", "sigma_imag") if k in doc["parameters"]}
            assert got == want

    def test_solver_settings_reach_the_solver(self, tmp_path, monkeypatch):
        # `spectrum` passes its flags on; `verify` uses their defaults
        calls = []
        solve = numerics.eigen_near_shift

        def recorded(op, sigma, iters):
            calls.append((op.size, sigma, iters))
            return solve(op, sigma, iters)

        monkeypatch.setattr(numerics, "eigen_near_shift", recorded)
        monkeypatch.chdir(tmp_path)
        m = cli._FIGURE["radial"]
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2",
            "--nmax", "2", "--iters", "7", "--sigma-imag", "0.25",
        ]) == 0
        assert calls == [(1200, models.energy(m, n) + 0.25j, 7) for n in (1, 2)]
        calls.clear()
        assert run(["verify", "--suite", "spectra", "--family", "radial"]) == 0
        assert calls == [(1200, models.energy(m, n) + 0.3j, 60) for n in (1, 2, 3)]

    def test_complex_levels_match_the_spectra_suite(self, tmp_path, monkeypatch):
        # one grid-spectrum routine serves both commands: at the reference
        # radial model and its 1200 points they measure the same levels
        monkeypatch.chdir(tmp_path)
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2",
            "--nmax", "3", "--out", "s.csv",
        ]) == 0
        assert run(["verify", "--suite", "spectra", "--family", "radial"]) == 0
        data = read_csv(tmp_path / "s.csv")
        spectrum = {c["name"]: c["measured"] for c in json.loads(
            (tmp_path / "s.manifest.json").read_text())["checks"]}
        verify = {c["name"]: c["measured"] for c in json.loads(
            (tmp_path / "verify.manifest.json").read_text())["checks"]}
        for n in (1, 2, 3):
            for name in ("eigen-residual", "im-ratio"):
                assert spectrum[f"{name}-{n}"] == verify[f"radial-complex-{n}-{name}"]
            assert data["rel_err"][n - 1] == verify[f"radial-complex-{n}-re-rel"]

    def test_shifted_scarf_is_refused(self, tmp_path, capsys):
        code = run([
            "spectrum", "--family", "scarf", "--a", "1.75", "--b", "3",
            "--k", "1.25", "--eps", "1", "--out", str(tmp_path / "n.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_tolerance_override_flips_outcome(self, tmp_path, capsys):
        args = [
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
            "--grid-points", "600", "--out", str(tmp_path / "w.csv"),
        ]
        assert run(args) == 0
        assert capsys.readouterr().err == ""
        assert run(args + ["--tol-spectrum-rel", "1e-12"]) == 1
        # one warning per failing row, in manifest order, as `verify` gives
        warned = failed_check_lines(tmp_path / "w.manifest.json")
        assert len(warned) == 4
        assert capsys.readouterr().err.splitlines() == warned


class TestNegativeK:
    @pytest.mark.parametrize("args", [
        ["table", "--family", "radial", "--a", "2.5", "--k", "-1.75", "--eps", "1.2", "--psi", "1"],
        ["table", "--family", "radial", "--a", "2.25", "--k", "-1.75", "--eps", "1.2", "--psi", "1"],
        ["table", "--family", "scarf", "--a", "1.75", "--b", "3", "--k", "-1.25", "--psi", "1"],
        ["table", "--family", "scarf", "--a", "1.75", "--b", "3", "--k", "-1.25", "--eps", "1",
         "--branch", "cos", "--psi", "1"],
        ["spectrum", "--family", "scarf", "--a", "1.75", "--b", "3", "--k", "-1.25"],
        ["verify", "--suite", "residuals", "--family", "scarf", "--k", "-1.25"],
        ["verify", "--suite", "residuals", "--family", "radial", "--a", "2.5", "--k", "-1.75"],
    ], ids=[
        "table-radial-a2.5", "table-radial-a2.25", "table-scarf", "table-scarf-cos",
        "spectrum-scarf", "residuals-scarf", "residuals-radial",
    ])
    def test_negative_k_runs(self, tmp_path, monkeypatch, capsys, args):
        # these crashed or refused a finite cell before |k| sized it
        monkeypatch.chdir(tmp_path)
        assert run(args) == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_zeros_suite(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for nmax in ("8", "12"):
            assert run(["verify", "--suite", "zeros", "--a", "5", "--nmax", nmax]) == 0
            out = capsys.readouterr().out
            assert "PASS zero-pattern-a5" in out
            doc = json.loads((tmp_path / "verify.manifest.json").read_text())
            assert all(c["status"] == "pass" for c in doc["checks"])
        assert doc["parameters"]["tolerances"] == {}

    @pytest.mark.parametrize("a", ["1e-15", "1e-18", "1e-300"])
    def test_zeros_suite_at_tiny_index(self, a, tmp_path, capsys, monkeypatch):
        # the float members' O(a) coefficients are SVD noise here; the
        # exact members keep the pattern
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "zeros", "--a", a]) == 0
        assert capsys.readouterr().err == ""

    def test_pct_const_diff_divides_by_the_exact_gap(self, tmp_path, capsys, monkeypatch):
        # from a ~ 1e16 E_1 and E_2 round to one float; their difference
        # divided by zero
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "pct", "--family", "radial", "--a", "1e20"]) in (0, 1)
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        row = next(c for c in doc["checks"] if c["name"] == "radial-const-diff")
        assert math.isfinite(row["measured"])
        assert capsys.readouterr().err.splitlines() == failed_check_lines(
            tmp_path / "verify.manifest.json"
        )

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

    @pytest.mark.parametrize("argv", [
        ["--family", "scarf", "--branch", "cos"],
        ["--family", "scarf", "--branch", "cos", "--eps", "0"],
        ["--family", "scarf", "--a", "-0.25", "--b", "-0.4"],
        ["--family", "scarf", "--a", "1.75", "--b", "2"],
        ["--family", "scarf", "--a", "0.5", "--b", "1.5"],
        ["--family", "radial", "--a", "0.5", "--k", "4"],
    ], ids=" ".join)
    def test_pct_suite_reads_the_model(self, tmp_path, monkeypatch, capsys, argv):
        # pct checked only the reference models and refused these flags
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "pct", *argv]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        assert all(c["status"] == "pass" for c in doc["checks"])
        flags = dict(zip(argv[::2], argv[1::2]))
        for flag, value in flags.items():
            given = doc["parameters"][flag[2:]]
            assert given == (value if flag in ("--family", "--branch") else float(value))
        shifted = [c["name"] for c in doc["checks"] if "shifted" in c["name"]]
        assert shifted == ([] if flags.get("--eps") == "0" else [f"{flags['--family']}-shifted-V-rel"])

    def test_pct_suite_at_eps_zero_has_no_shifted_row(self, tmp_path, monkeypatch):
        # as residuals adds no shifted model there
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "pct", "--eps", "0"]) == 0
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        names = [n for n in _expected(_SUITE_CHECKS, "pct", None) if "shifted" not in n]
        assert [c["name"] for c in doc["checks"]] == names

    def test_pct_excludes_row_is_bounded_by_extract_rel(self, tmp_path, monkeypatch):
        # the candidates -8ab and 2((a - b)^2 - 4ab) differ by 2 (a - b)^2,
        # a relative 1/223 at (1.75, 2), which the old 1e-2 margin failed
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "pct", "--family", "scarf", "--a", "1.75", "--b", "2"]) == 0
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        row = doc["checks"][-1]
        assert row["name"] == "scarf-rational-excludes-alternative"
        assert row["measured"] == 0.125 / 27.875
        assert row["tolerance"] == cli._TOLERANCES["extract-rel"]

    @pytest.mark.parametrize("family, names", [
        ("radial", ["radial-eps0-n1", "radial-eps0-n2", "radial-eps0-n3"]),
        ("scarf", ["scarf-eps0-n1", "scarf-eps0-n2", "scarf-eps0-n3"]),
    ])
    def test_residuals_at_eps_zero_check_the_hermitian_model_once(
        self, tmp_path, monkeypatch, capsys, family, names
    ):
        # the radial Hermitian model was checked on the shifted model's
        # grid, which crosses x = 0, and exited 2
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "residuals", "--family", family, "--eps", "0"]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        assert [c["name"] for c in doc["checks"]] == names
        assert all(c["status"] == "pass" for c in doc["checks"])

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

    def test_extrapolated_levels_are_near_the_formula(self, tmp_path, monkeypatch):
        # they read 3.9e-10 (radial) and 1.9e-11 (Scarf); with r = 4 in
        # place of the exact (2001/1001)^2 they read 1.35e-8 and 4.6e-9
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "spectra"]) == 0
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        rows = {c["name"]: c for c in doc["checks"] if "extrapolated" in c["name"]}
        assert sorted(rows) == ["radial-extrapolated-rel", "scarf-extrapolated-rel"]
        for row in rows.values():
            assert row["measured"] <= 1e-9
            assert row["tolerance"] == 1e-8

    def test_extrapolated_tolerance_override_fails_each_family(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "spectra", "--tol-extrapolated-rel", "1e-13"]) == 1
        warned = failed_check_lines(tmp_path / "verify.manifest.json")
        assert [line.split()[3] for line in warned] == [
            "radial-extrapolated-rel", "scarf-extrapolated-rel",
        ]
        assert capsys.readouterr().err.splitlines() == warned

    def test_extrapolation_is_fourth_order(self):
        # the Dirichlet Laplacian on (0, pi) with N interior points has
        # the levels (4/h^2) sin^2(k h/2), h = pi/(N + 1), against k^2;
        # their h^2 term cancels, so doubling both grids cuts the error
        # about 16 times (about 8 with r = 4 in place of the exact ratio)
        k = np.arange(1, 5)

        def levels(n):
            h = math.pi / (n + 1)
            return 4.0 / (h * h) * np.sin(0.5 * k * h) ** 2

        errors = [
            np.abs(cli._extrapolated(levels(n), levels(2 * n), (n, 2 * n)) - k * k)
            for n in (100, 200)
        ]
        assert np.all(errors[0] <= 2e-7 * k * k)
        assert np.all((15.0 < errors[0] / errors[1]) & (errors[0] / errors[1] < 17.0))

    def test_orthogonality_suite_at_nmax_8(self, tmp_path, monkeypatch):
        # each Gram matrix stops on its largest entry, not entry by entry
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "orthogonality", "--nmax", "8"]) == 0

    @pytest.mark.parametrize("nmax", ["10", "12", "18"])
    def test_orthogonality_suite_at_high_degree(
        self, tmp_path, monkeypatch, capsys, nmax
    ):
        # the a = 2 exp-map tail did not settle at 10 and 12 while the map
        # put infinity at t -> 1, where the panel grading is capped; at 18
        # the algebraic map's overflowed members met the underflowed
        # weight as inf * 0 = NaN
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "orthogonality", "--nmax", nmax]) == 0
        assert "FAIL" not in capsys.readouterr().out
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        assert len(doc["checks"]) == 8
        assert all(c["status"] == "pass" for c in doc["checks"])

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


# the check names of each suite with default flags, per family, in the
# order the suite runs them; a suite without a family axis is under None
_SUITE_CHECKS = {
    "orthogonality": {None: [
        "laguerre-a0.5-offdiag", "laguerre-a0.5-diag-rel", "laguerre-a0.5-map-agreement",
        "laguerre-a2-offdiag", "laguerre-a2-diag-rel", "laguerre-a2-map-agreement",
        "jacobi-offdiag", "jacobi-diag-rel",
    ]},
    "zeros": {None: ["zero-pattern-a0.5", "zero-pattern-a2", "zero-pattern-a5"]},
    "pct": {
        "radial": [
            "radial-extracted-V-rel", "radial-energy-1-rel", "radial-energy-2-rel",
            "radial-const-diff", "radial-shifted-V-rel",
        ],
        "scarf": [
            "scarf-extracted-V-rel", "scarf-energy-1-rel", "scarf-energy-2-rel",
            "scarf-const-diff", "scarf-shifted-V-rel",
            "scarf-rational-matches-minus-8ab", "scarf-rational-excludes-alternative",
        ],
    },
    "hermiticity": {
        "radial": ["radial-quasi-rel", "radial-pseudo-rel", "radial-pt-rel"],
        "scarf": [
            "scarf-quasi-rel", "scarf-pseudo-rel", "scarf-sin-pt-broken", "scarf-cos-pt-rel",
        ],
    },
    "spectra": {
        "radial": [
            "radial-spectrum-rel", "radial-conv-factor-min", "radial-conv-factor-max",
            "radial-extrapolated-rel",
            *[f"radial-complex-{n}-{check}" for n in (1, 2, 3)
              for check in ("eigen-residual", "im-ratio", "re-rel")],
        ],
        "scarf": [
            "scarf-spectrum-rel", "scarf-conv-factor-min", "scarf-conv-factor-max",
            "scarf-extrapolated-rel",
        ],
    },
    "residuals": {
        "radial": [f"radial-eps{e}-n{n}" for e in ("0", "1.2") for n in (1, 2, 3)],
        "scarf": [f"scarf-eps{e}-n{n}" for e in ("0", "1") for n in (1, 2, 3)],
    },
}


# the tolerances each suite compares against with default flags, per family
_SUITE_TOLERANCES = {
    "orthogonality": {None: ["gram-offdiag", "gram-diag-rel"]},
    "zeros": {None: []},
    "pct": {"radial": ["extract-rel", "const-diff"], "scarf": ["extract-rel", "const-diff"]},
    "hermiticity": {
        "radial": ["quasi-rel", "pseudo-rel", "pt-rel"],
        "scarf": ["quasi-rel", "pseudo-rel", "pt-broken-min", "pt-rel"],
    },
    "spectra": {
        "radial": [
            "spectrum-rel", "conv-lo", "conv-hi", "extrapolated-rel", "eigen-residual", "im-ratio",
        ],
        "scarf": ["spectrum-rel", "conv-lo", "conv-hi", "extrapolated-rel"],
    },
    "residuals": {"radial": ["residual"], "scarf": ["residual"]},
}

_DEFAULT_TOLERANCES = {
    "gram-offdiag": 1e-8, "gram-diag-rel": 1e-8, "extract-rel": 1e-8,
    "const-diff": 1e-9, "quasi-rel": 1e-11, "pseudo-rel": 1e-11,
    "pt-rel": 1e-12, "pt-broken-min": 1e-2, "spectrum-rel": 1e-3,
    "extrapolated-rel": 1e-8, "conv-lo": 3.5, "conv-hi": 4.5, "im-ratio": 1e-6,
    "eigen-residual": 1e-8, "residual": 1e-6,
}


def _expected(table, suite, family):
    names = []
    for s in table if suite == "all" else [suite]:
        by_family = table[s]
        for f in [None] if None in by_family else [family] if family else ["radial", "scarf"]:
            names += by_family[f]
    return names


class TestVerifyContract:
    # recorded before the suites took their models from one builder: every
    # suite and family with default flags gives these checks, all passing,
    # and a manifest recording no model flag and exactly the tolerances
    # its checks compared against.  `measured` is not pinned: its last
    # bits depend on the BLAS
    @pytest.mark.parametrize("suite, family", [
        ("orthogonality", None), ("zeros", None),
        *[(s, f) for s in ("pct", "hermiticity", "spectra", "residuals", "all")
          for f in (None, "radial", "scarf")],
    ], ids=lambda v: str(v))
    def test_default_flags(self, tmp_path, monkeypatch, capsys, suite, family):
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--suite", suite] + (["--family", family] if family else [])
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads((tmp_path / "verify.manifest.json").read_text())
        names = _expected(_SUITE_CHECKS, suite, family)
        assert [c["name"] for c in doc["checks"]] == names
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert [line.split()[:2] for line in captured.out.splitlines()] == [
            ["PASS", f"{name}:"] for name in names
        ]
        assert doc["parameters"] == {
            "suite": suite, "family": family, "a": None, "b": None, "k": None,
            "eps": None, "branch": None, "nmax": None,
            "tolerances": {
                name: _DEFAULT_TOLERANCES[name]
                for name in _expected(_SUITE_TOLERANCES, suite, family)
            },
        }

    def test_verify_spectra_reads_the_model(self, tmp_path, monkeypatch, capsys):
        # `all` recorded the user's a, k and eps but ran its spectra rows on
        # the default model, and `--suite spectra` refused the same flags
        model = ["--family", "radial", "--a", "2.5", "--k", "1.5", "--eps", "1"]

        def spectra_rows(argv):
            assert run(["verify", *argv, "--manifest", "v.json"]) == 0
            assert capsys.readouterr().err == ""
            checks = json.loads((tmp_path / "v.json").read_text())["checks"]
            return [c for c in checks if c["name"] in names]

        monkeypatch.chdir(tmp_path)
        names = _SUITE_CHECKS["spectra"]["radial"]
        rows = spectra_rows(["--suite", "spectra", *model])
        assert [c["name"] for c in rows] == names
        assert spectra_rows(["--suite", "all", *model]) == rows
        assert spectra_rows(["--suite", "spectra", "--family", "radial"]) != rows

    @pytest.mark.parametrize("suite", ["zeros", "orthogonality"])
    def test_laguerre_suites_build_no_model(self, tmp_path, monkeypatch, capsys, suite):
        # --a is a Laguerre index there, while the Scarf model (3, 3) is invalid
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", suite, "--a", "3"]) == 0
        assert capsys.readouterr().err == ""

    # a value for each tolerance that fails a check comparing against it
    @pytest.mark.parametrize("name, value", [
        (name, {"conv-lo": "5", "conv-hi": "3", "pt-broken-min": "1e300"}.get(name, "-1"))
        for name in _DEFAULT_TOLERANCES
    ], ids=lambda v: v)
    def test_every_tolerance_is_compared(self, tmp_path, monkeypatch, capsys, name, value):
        # so no --tol-<name> flag is one that nothing reads
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "all", f"--tol-{name}", value]) == 1
        manifest = tmp_path / "verify.manifest.json"
        warned = failed_check_lines(manifest)
        assert warned and capsys.readouterr().err.splitlines() == warned
        tolerances = json.loads(manifest.read_text())["parameters"]["tolerances"]
        assert tolerances == {**_DEFAULT_TOLERANCES, name: float(value)}


class TestOverflow:
    # each raised an OverflowError traceback from a norm or a member's
    # leading coefficient
    @pytest.mark.parametrize("argv, line", [
        (["table", "--family", "radial", "--a", "2", "--k", "1.75", "--psi", "145"],
         "the squared norm of the degree-145 X1 Laguerre member at a = 2"),
        (["table", "--family", "radial", "--a", "2", "--k", "1.75", "--psi", "172"],
         "the leading coefficient of the degree-172 laguerre member"),
        (["table", "--family", "radial", "--a", "50", "--k", "1e4", "--psi", "1,2,3"],
         "the norm of radial state 1 at a = 50, k = 10000"),
        (["table", "--family", "radial", "--a", "1e6", "--k", "1.75", "--psi", "1,2,3"],
         "the norm of radial state 1 at a = 1e+06, k = 1.75"),
        (["verify", "--suite", "residuals", "--family", "radial", "--a", "50", "--k", "1e4"],
         "the norm of radial state 1 at a = 50, k = 10000"),
        # each raised an OverflowError traceback from rounding an exact
        # member or split, or from the float ODE's or the map's powers
        (["verify", "--suite", "zeros", "--a", "1e155", "--nmax", "3"],
         "the float form of the degree-2 laguerre member"),
        (["verify", "--suite", "orthogonality", "--a", "1e155", "--nmax", "2"],
         "the float form of the degree-2 laguerre member"),
        (["table", "--family", "scarf", "--a", "1e200", "--b", "3e200", "--k", "1", "--psi", "1"],
         "the float form of the degree-1 jacobi member"),
        (["verify", "--suite", "pct", "--family", "radial", "--a", "1e155"],
         "a term of V / k^2 of the degree-1 laguerre member"),
        (["verify", "--suite", "pct", "--family", "scarf", "--a", "1e200", "--b", "3e200"],
         "a term of V / k^2 of the degree-1 jacobi member"),
        (["verify", "--suite", "pct", "--family", "scarf", "--k", "1e200"],
         "k^3 of the sine map at k = 1e+200"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[3:]))
    def test_one_error_line_and_exit_1(self, tmp_path, monkeypatch, capsys, argv, line):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--points", "11"] if argv[0] == "table" else argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {line} is out of the float range"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def assert_usage_error(captured, tmp_path, lines=None):
    """Exit-2 contract: stderr is `error:` lines only, stdout is empty,
    and no output file was written."""
    err = captured.err.splitlines()
    assert err and err[0].startswith("error:")
    assert not any(line.startswith("warn:") for line in err)
    if lines is not None:
        assert err == lines
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def assert_parse_error(captured, tmp_path, message):
    """Exit-2 contract of a flag argparse refuses: stderr is its usage
    block, then the one line `error: <message>`; stdout is empty, and no
    output file was written."""
    err = captured.err.splitlines()
    assert err[0].startswith("usage:")
    assert err[-1] == f"error: {message}"
    assert not any(line.startswith(("error:", "warn:")) for line in err[:-1])
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag, suite", [
        (["--suite", "spectra", "--nmax", "3"], "nmax", "spectra"),
        (["--suite", "pct", "--nmax", "3"], "nmax", "pct"),
        (["--suite", "hermiticity", "--nmax", "3"], "nmax", "hermiticity"),
        (["--suite", "residuals", "--nmax", "3"], "nmax", "residuals"),
        (["--suite", "zeros", "--family", "scarf"], "family", "zeros"),
        (["--suite", "orthogonality", "--eps", "1"], "eps", "orthogonality"),
        # a tolerance is refused where no check the suite ran compared
        # against it, which the suite finds out only by running
        (["--suite", "zeros", "--tol-spectrum-rel", "1e-30"], "tol-spectrum-rel", "zeros"),
        (["--suite", "hermiticity", "--family", "radial", "--tol-pt-broken-min", "5"],
         "tol-pt-broken-min", "hermiticity"),
        (["--suite", "spectra", "--family", "scarf", "--tol-im-ratio", "1"],
         "tol-im-ratio", "spectra"),
        # a Hermitian radial model has no complex rows
        (["--suite", "spectra", "--family", "radial", "--eps", "0", "--tol-im-ratio", "1"],
         "tol-im-ratio", "spectra"),
        (["--suite", "residuals", "--tol-gram-offdiag", "1"], "tol-gram-offdiag", "residuals"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_verify_rejects_unread_flags(self, tmp_path, monkeypatch, capsys, argv, flag, suite):
        # these exited 0 and recorded values the suite never used
        monkeypatch.chdir(tmp_path)
        assert run(["verify", *argv]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path, [f"error: --{flag} is not read by the {suite} suite"]
        )

    @pytest.mark.parametrize("flag, value", [
        ("iters", "40"), ("sigma-imag", "0.25"),
        ("tol-im-ratio", "1"), ("tol-eigen-residual", "1"),
    ], ids=lambda v: v)
    def test_hermitian_spectrum_rejects_solver_flags(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        # a Hermitian spectrum is counted by Sturm bisection: no shift, no
        # step cap and no inverse-iteration checks; these exited 0
        monkeypatch.chdir(tmp_path)
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--nmax", "2",
            f"--{flag}", value,
        ]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path, [f"error: --{flag} is not read by a Hermitian spectrum"]
        )

    def test_verify_all_reads_every_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([
            "verify", "--suite", "all", "--family", "radial", "--a", "2.5",
            "--k", "1.5", "--eps", "1", "--nmax", "5",
        ]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "verify.manifest.json").read_text())["parameters"]["a"] == 2.5

    def test_verify_validates_models_before_any_suite(self, tmp_path, monkeypatch, capsys):
        # `orthogonality` ran its Gram matrices before the Scarf model was refused
        def refused(*args):
            raise AssertionError("a suite ran before the models were validated")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(numerics, "gram_matrix", refused)
        assert run(["verify", "--suite", "all", "--family", "scarf", "--a", "3"]) == 2
        assert_usage_error(capsys.readouterr(), tmp_path, [
            "error: indices must differ (a = b collapses the rational term)",
            "error: invalid model parameters",
        ])

    def test_verify_refuses_hermitian_hermiticity_before_any_suite(
        self, tmp_path, monkeypatch, capsys
    ):
        # `all` ran orthogonality, zeros and pct before refusing eps = 0
        def refused(*args):
            raise AssertionError("a suite ran before eps = 0 was refused")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(numerics, "gram_matrix", refused)
        assert run(["verify", "--suite", "all", "--eps", "0"]) == 2
        assert_usage_error(capsys.readouterr(), tmp_path, [
            "error: hermiticity suite needs eps != 0 (identities are trivial)",
        ])

    @pytest.mark.parametrize("suite", ["hermiticity", "residuals"])
    @pytest.mark.parametrize("argv, diagnostic", [
        (["--family", "radial", "--a", "1", "--eps", "2"],
         "error: eps^2 = 4a (eps = 2, a = 1) places the rational term's pole at x = 0 "
         "on the real line"),
        (["--a=-1"], "error: index a must be positive, got a = -1"),
        (["--family", "scarf", "--a", "3"],
         "error: indices must differ (a = b collapses the rational term)"),
    ], ids=["pole-at-origin", "negative-a", "scarf-a-equals-b"])
    def test_verify_validates_its_models(
        self, tmp_path, monkeypatch, capsys, suite, argv, diagnostic
    ):
        # these exited 0 on a model `table` refuses
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", suite, *argv]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path, [diagnostic, "error: invalid model parameters"]
        )

    @pytest.mark.parametrize("argv, diagnostic", [
        (["table", "--family", "scarf", "--a=-0.25", "--b", "1", "--k", "1.25"],
         "error: indices with ab <= 0 (a = -0.25, b = 1) place the rational term's pole "
         "in the closed cell"),
        (["table", "--family", "scarf", "--a=-0.25", "--b", "1", "--k", "1.25", "--psi", "1"],
         "error: indices with ab <= 0 (a = -0.25, b = 1) place the rational term's pole "
         "in the closed cell"),
        (["spectrum", "--family", "scarf", "--a", "0", "--b", "1", "--k", "1.25"],
         "error: indices with ab <= 0 (a = 0, b = 1) place the rational term's pole "
         "in the closed cell"),
        (["verify", "--suite", "hermiticity", "--family", "scarf", "--a=-0.25", "--b", "1"],
         "error: indices with ab <= 0 (a = -0.25, b = 1) place the rational term's pole "
         "in the closed cell"),
        (["verify", "--suite", "residuals", "--family", "scarf", "--a", "0", "--b", "1"],
         "error: indices with ab <= 0 (a = 0, b = 1) place the rational term's pole "
         "in the closed cell"),
        (["table", "--family", "scarf", "--a=-0.25", "--b=-0.4", "--k", "1.25",
          "--eps", "2.1458966094693253"],
         "error: cosh(eps) = |a+b|/|b-a| = 4.33333 places the rational term's pole "
         "on the real line"),
    ], ids=["table", "table-psi", "spectrum", "hermiticity", "residuals", "cosh-negative-sum"])
    def test_scarf_poles_in_the_cell_are_refused(
        self, tmp_path, monkeypatch, capsys, argv, diagnostic
    ):
        # these wrote a table across the pole, exited 1 on quadrature or
        # on a spectrum 300 % off, or exited 0 on a singular model
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path, [diagnostic, "error: invalid model parameters"]
        )

    @pytest.mark.parametrize("eps", ["0", "1.2"], ids=["real", "complex"])
    def test_spectrum_refuses_a_step_whose_square_underflows(
        self, tmp_path, monkeypatch, capsys, eps
    ):
        # h = 8.9e-302 squares to 0.0: this ended in a ZeroDivisionError
        # traceback from 2 / h^2
        monkeypatch.chdir(tmp_path)
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", eps,
            "--nmax", "1", "--lo", "1e-300", "--hi", "1e-299", "--grid-points", "100",
        ]) == 2
        assert_usage_error(capsys.readouterr(), tmp_path, [
            "error: grid step 8.91089e-302 on (1e-300, 1e-299) squares to zero"])

    @pytest.mark.parametrize("eps", ["0", "1.2"], ids=["real", "complex"])
    @pytest.mark.parametrize("flags", [
        ["--sigma-imag", "nan"], ["--sigma-imag", "inf"], ["--iters", "0"],
        ["--sigma-imag", "nan", "--iters", "0"],
    ], ids=lambda v: "-".join(v).replace("--", ""))
    def test_spectrum_checks_shift_and_iters(self, tmp_path, capsys, eps, flags):
        # the real spectrum never reads them, and exited 0.  argparse
        # refuses a non-finite shift, as every other non-finite float; an
        # infinite one was refused by inverse iteration, as (nan+infj)
        assert run([
            "spectrum", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", eps,
            "--nmax", "2", *flags, "--out", str(tmp_path / "s.csv"),
        ]) == 2
        if flags[0] == "--sigma-imag":
            message = f"argument --sigma-imag: must be finite, got {flags[1]!r}"
            assert_parse_error(capsys.readouterr(), tmp_path, message)
        else:
            assert_usage_error(capsys.readouterr(), tmp_path)

    @pytest.mark.parametrize("command", ["table", "spectrum"])
    @pytest.mark.parametrize("given, missing", [
        (["--a", "2"], "--k"), (["--k", "1.75"], "--a"), ([], "--a, --k"),
    ])
    def test_model_flags_are_required(self, tmp_path, capsys, command, given, missing):
        assert run([command, "--family", "radial", *given, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage:")
        assert err[-1] == f"error: the following arguments are required: {missing}"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("flag", [["--b", "7"], ["--branch", "cos"]])
    def test_verify_radial_rejects_scarf_flags(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "hermiticity", "--family", "radial", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {flag[0]} applies only to the scarf family"
        ]
        assert "PASS" not in captured.out
        assert not (tmp_path / "verify.manifest.json").exists()

    def test_verify_without_family_passes_scarf_flags_on(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run([
            "verify", "--suite", "hermiticity", "--b", "3", "--branch", "cos",
        ]) == 0
        # the cos-branch Scarf model checks one PT relation, not the
        # sin branch's broken one plus its cos partner
        assert "PASS scarf-pt-rel:" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "verify.manifest.json").read_text())
        assert manifest["parameters"]["b"] == 3.0
        assert manifest["parameters"]["branch"] == "cos"

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

    @pytest.mark.parametrize("command, flag, value", [
        ("table", "eps", "nan"),
        ("table", "k", "inf"),
        ("table", "xmax", "inf"),
        ("table", "xmin", "NaN"),
        ("spectrum", "a", "inf"),
        ("spectrum", "lo", "-inf"),
        ("spectrum", "hi", "nan"),
        ("verify", "eps", "nan"),
        ("verify", "a", "-inf"),
        ("verify", "tol-quasi-rel", "nan"),
        ("verify", "tol-conv-hi", "inf"),
        ("spectrum", "tol-im-ratio", "inf"),
        ("spectrum", "tol-spectrum-rel", "-inf"),
    ], ids=lambda v: v)
    def test_non_finite_model_and_range_flags(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        # a NaN or infinite model or range value gave an all-NaN table
        # with numpy warnings, or a manifest holding the invalid JSON NaN;
        # an infinite tolerance made its check pass whatever it measured
        monkeypatch.chdir(tmp_path)
        out, manifest = tmp_path / "o.csv", tmp_path / "o.json"
        argv = {
            "table": ["table", "--family", "radial", "--a", "2", "--k", "1.75"],
            "spectrum": ["spectrum", "--family", "radial", "--a", "2", "--k", "1.75"],
            "verify": ["verify", "--suite", "pct"],
        }[command] + [f"--{flag}={value}"]
        extra = ["--manifest", str(manifest)]
        if argv[0] != "verify":
            extra += ["--out", str(out)]
        assert run(argv + extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and "finite" in line for line in err)
        assert not any(line.startswith("warn:") for line in err)
        assert not out.exists() and not manifest.exists()
        assert list(tmp_path.iterdir()) == []

    def test_bad_psi_list(self, tmp_path, capsys):
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75",
            "--psi", "1,zero", "--out", str(tmp_path / "p.csv"),
        ]) == 2

    @pytest.mark.parametrize("psi, level", [("1,1", 1), ("2,3,2", 2), ("3, 1,03", 3)])
    def test_repeated_psi_level(self, tmp_path, monkeypatch, capsys, psi, level):
        # this exited 0 with the level's three columns written twice
        monkeypatch.chdir(tmp_path)
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2",
            "--psi", psi, "--points", "5",
        ]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path,
            [f"error: --psi lists level {level} more than once, got {psi!r}"],
        )

    @pytest.mark.parametrize("psi", ["", ","])
    def test_psi_list_naming_no_level(self, tmp_path, monkeypatch, capsys, psi):
        # "" exited 0 with no state columns; "," said levels must be >= 1
        monkeypatch.chdir(tmp_path)
        assert run([
            "table", "--family", "radial", "--a", "2", "--k", "1.75", "--eps", "1.2",
            "--psi", psi, "--points", "5",
        ]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path,
            [f"error: --psi names no level, got {psi!r}"],
        )

    # an unwritable path ended in a traceback and exit 1

    def test_unwritable_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "missing" / "x.csv"
        assert run(["table", "--family", "radial", "--a", "2", "--k", "1.75",
                    "--out", str(out)]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path,
            [f"error: cannot write {out}: No such file or directory"],
        )

    def test_directory_as_out(self, tmp_path, monkeypatch, capsys):
        # the temp file is made, but the rename onto a directory fails
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert run(["table", "--family", "radial", "--a", "2", "--k", "1.75",
                    "--out", "d"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot write d: Is a directory"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_unwritable_verify_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "missing" / "v.json"
        assert run(["verify", "--suite", "zeros", "--manifest", str(manifest)]) == 2
        # the report's PASS lines were printed before this error
        assert_usage_error(
            capsys.readouterr(), tmp_path,
            [f"error: cannot write {manifest}: No such file or directory"],
        )

    def test_unwritable_manifest_keeps_the_written_csv(self, tmp_path, monkeypatch, capsys):
        # the CSV is written before the manifest, so it stays, whole
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "missing" / "t.json"
        argv = ["table", "--family", "radial", "--a", "2", "--k", "1.75", "--points", "11"]
        assert run(argv + ["--out", "t.csv", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write {manifest}: No such file or directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
        written = (tmp_path / "t.csv").read_bytes()
        assert run(argv + ["--out", "u.csv"]) == 0
        assert written == (tmp_path / "u.csv").read_bytes()

    # the manifest overwrote the CSV, exit 0, and listed the file twice
    @pytest.mark.parametrize("command, flags", [
        ("table", ["--points", "11"]),
        ("spectrum", ["--nmax", "1", "--grid-points", "200"]),
    ])
    @pytest.mark.parametrize("out, manifest", [
        ("same.csv", "same.csv"),
        ("./same.csv", "same.csv"),
        (None, "radial_{command}.csv"),  # the CSV's default name
    ], ids=["same", "dot-slash", "default-out"])
    def test_out_and_manifest_naming_one_file(
        self, tmp_path, monkeypatch, capsys, command, flags, out, manifest
    ):
        monkeypatch.chdir(tmp_path)
        manifest = manifest.format(command=command)
        argv = [command, "--family", "radial", "--a", "2", "--k", "1.75", *flags]
        if out is not None:
            argv += ["--out", out]
        assert run(argv + ["--manifest", manifest]) == 2
        assert_usage_error(
            capsys.readouterr(), tmp_path,
            [f"error: the CSV and the manifest name one file, {out or manifest}"],
        )


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "orthogonality", "--nmax", "20"],
    ["table", "--family", "radial", "--a", "2", "--k", "1.75", "--xmax", "1e200"],
    ["table", "--family", "scarf", "--a", "1.75", "--b", "3", "--k", "1.25", "--eps", "400",
     "--psi", "1"],
], ids=["orthogonality-nmax-20", "radial-xmax-1e200", "scarf-eps-400"])
def test_numpy_warnings_stay_off_stderr(tmp_path, monkeypatch, capsys, argv):
    # each run reports its non-finite values itself, as an `error:` line
    # or a failing finite-values check; numpy's RuntimeWarnings printed
    # unprefixed lines before it
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith(("error:", "warn:")) for line in err)
    if argv[0] == "table":
        # a table warned of nothing while its finite-values check failed
        assert err == failed_check_lines(tmp_path / f"{argv[2]}_table.manifest.json")
        assert err[0].startswith("warn: check failed: finite-values measured ")


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
