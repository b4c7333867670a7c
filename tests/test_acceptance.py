"""Acceptance gate: one test per shipped claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also asserts, so the suite fails loudly if any claim regresses.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from xspectra import (
    GMap,
    PotentialModel,
    X1Family,
    cli,
    discretize,
    eigen_near_shift,
    energy,
    extract_potential_report,
    gram_matrix,
    lowest_eigenvalues,
    potential,
    pseudo_hermiticity_residual,
    pt_symmetry_residual,
    quasi_hermiticity_residual,
    schrodinger_residual,
    semi_infinite_exp_quadrature,
    x1_laguerre_norm,
    x1_polynomial,
)
from xspectra.polycore import count_real_roots_in

RADIAL = PotentialModel("radial_extended", a=2.0, k=1.75, eps=1.2)
SCARF = PotentialModel("scarf_extended", a=1.75, b=3.0, k=1.25, eps=1.0)

CLOSED_FORM_MEMBERS = {
    ("laguerre", 0.5, None, 1): [-1.5, -1.0],
    ("laguerre", 0.5, None, 2): [-1.25, 0.0, 1.0],
    ("laguerre", 2.0, None, 1): [-3.0, -1.0],
    ("laguerre", 2.0, None, 2): [-8.0, 0.0, 1.0],
    ("jacobi", 1.75, 3.0, 1): [2.7, -0.5],
    ("jacobi", 1.75, 3.0, 2): [-27.0 / 16.0, 69.0 / 8.0, -27.0 / 16.0],
    ("jacobi", 0.5, 1.5, 1): [2.0, -0.5],
    ("jacobi", 0.5, 1.5, 2): [-1.0, 3.25, -1.0],
}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_member_reproduction():
    worst = 0.0
    for (kind, a, b, n), want in CLOSED_FORM_MEMBERS.items():
        fam = X1Family(kind, a) if kind == "laguerre" else X1Family(kind, a, b)
        got = np.array(x1_polynomial(fam, n).coeffs)
        want = np.array(want)
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    report(1, "member-reproduction", worst <= 1e-12, f"max coeff err {worst:.2e}")


def test_criterion_2_orthogonality():
    t0 = time.monotonic()
    worst_off, worst_diag = 0.0, 0.0
    q = semi_infinite_exp_quadrature()
    for a in (0.5, 2.0):
        gram, ratio = gram_matrix(X1Family("laguerre", a), 6, q)
        worst_off = max(worst_off, ratio)
        want = np.array([x1_laguerre_norm(n, a) for n in range(1, 7)])
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(gram) - want) / want))
    dt = time.monotonic() - t0
    ok = worst_off <= 1e-8 and worst_diag <= 1e-8 and dt < 10.0
    report(
        2,
        "orthogonality",
        ok,
        f"offdiag {worst_off:.2e}, diag err {worst_diag:.2e}, {dt:.2f}s",
    )


def test_criterion_3_zero_structure():
    bad = []
    for a in (0.5, 2.0, 5.0):
        fam = X1Family("laguerre", a)
        for n in range(1, 9):
            p = x1_polynomial(fam, n)
            left = count_real_roots_in(p, -math.inf, -a)
            right = count_real_roots_in(p, 0.0, math.inf)
            if (left, right) != (1, n - 1):
                bad.append((a, n, left, right))
    report(3, "zero-structure", not bad, f"mismatches {bad!r}")


def test_criterion_4_pct_consistency():
    worst_v, worst_e, worst_dw, worst_shift = 0.0, 0.0, 0.0, 0.0
    cases = [
        (
            GMap("quadratic", RADIAL.k),
            X1Family("laguerre", RADIAL.a),
            RADIAL,
            np.linspace(0.4, 6.0, 50),
            np.linspace(-5.0, 5.0, 50),
        ),
        (
            GMap("sine", SCARF.k),
            X1Family("jacobi", SCARF.a, SCARF.b),
            SCARF,
            np.linspace(-0.9, 0.9, 50) * (0.5 * math.pi / SCARF.k),
            np.linspace(-0.9, 0.9, 50) * (0.5 * math.pi / SCARF.k),
        ),
    ]
    for gm, fam, shifted, grid, shift_grid in cases:
        model = replace(shifted, eps=0.0)
        rep = extract_potential_report(gm, fam, (1, 2), grid)
        want = potential(model, grid)
        worst_v = max(
            worst_v, np.max(np.abs(rep.v_values - want)) / np.max(np.abs(want))
        )
        for idx, n in enumerate((1, 2)):
            worst_e = max(
                worst_e,
                abs(float(np.real(rep.energies[idx])) - energy(model, n))
                / energy(model, n),
            )
        de = abs(rep.energies[0] - rep.energies[1])
        worst_dw = max(worst_dw, rep.dw_spread / de)
        # the exact V at the complex points of the shifted map
        rep = extract_potential_report(
            GMap(gm.kind, gm.k, 1j * shifted.eps), fam, (1, 2), shift_grid
        )
        want = potential(shifted, shift_grid)
        worst_shift = max(
            worst_shift, np.max(np.abs(rep.v_values - want)) / np.max(np.abs(want))
        )
    ok = worst_v <= 1e-8 and worst_e <= 1e-8 and worst_dw <= 1e-9 and worst_shift <= 1e-8
    report(
        4,
        "pct-consistency",
        ok,
        f"V err {worst_v:.2e}, E err {worst_e:.2e}, spread {worst_dw:.2e}, "
        f"shifted V err {worst_shift:.2e}",
    )


def test_criterion_5_hermitian_spectra():
    t0 = time.monotonic()
    worst_rel, factors = 0.0, []
    half = 0.5 * math.pi / SCARF.k
    cases = [
        (replace(RADIAL, eps=0.0), 1e-8, 12.0),
        (replace(SCARF, eps=0.0), -half, half),
    ]
    for model, lo, hi in cases:
        want = np.array([energy(model, n) for n in range(1, 5)])
        err = {}
        for npts in (2000, 4000):
            ev = lowest_eigenvalues(discretize(model, lo, hi, npts), 4)
            err[npts] = np.abs(ev - want)
        worst_rel = max(worst_rel, np.max(err[4000] / want))
        factors.extend(err[2000] / err[4000])
    dt = time.monotonic() - t0
    ok = (
        worst_rel <= 1e-3
        and all(3.5 <= f <= 4.5 for f in factors)
        and dt < 60.0
    )
    report(
        5,
        "hermitian-spectra",
        ok,
        f"rel err {worst_rel:.2e}, factors "
        f"[{min(factors):.2f}, {max(factors):.2f}], {dt:.1f}s",
    )


def test_criterion_6_complex_radial_reality():
    t0 = time.monotonic()
    op = discretize(RADIAL, -12.0, 12.0, 1200)
    worst_im, worst_re = 0.0, 0.0
    converged = True
    for n in (1, 2, 3):
        e_n = energy(RADIAL, n)
        res = eigen_near_shift(op, e_n + 0.3j, 60)
        converged &= res.converged
        worst_im = max(worst_im, abs(res.eigenvalue.imag) / abs(res.eigenvalue))
        worst_re = max(worst_re, abs(res.eigenvalue.real - e_n) / e_n)
    dt = time.monotonic() - t0
    ok = converged and worst_im <= 1e-6 and worst_re <= 1e-3 and dt < 30.0
    report(
        6,
        "complex-radial-reality",
        ok,
        f"|Im|/|lam| {worst_im:.2e}, Re err {worst_re:.2e}, {dt:.1f}s",
    )


def test_criterion_7_similarity_identities():
    half = 0.5 * math.pi / SCARF.k
    grids = {
        "radial": np.linspace(-4.0, 4.0, 200),
        "scarf": np.linspace(-0.98 * half, 0.98 * half, 200),
    }
    rad_scale = np.max(np.abs(potential(RADIAL, grids["radial"])))
    sc_scale = np.max(np.abs(potential(SCARF, grids["scarf"])))
    quasi = max(
        quasi_hermiticity_residual(RADIAL, grids["radial"]) / rad_scale,
        quasi_hermiticity_residual(SCARF, grids["scarf"]) / sc_scale,
    )
    pseudo = max(
        pseudo_hermiticity_residual(RADIAL, grids["radial"]) / rad_scale,
        pseudo_hermiticity_residual(SCARF, grids["scarf"]) / sc_scale,
    )
    pt_radial = pt_symmetry_residual(RADIAL, grids["radial"]) / rad_scale
    cos_model = replace(SCARF, branch="cos")
    cos_grid = np.linspace(-0.45 * half, 0.45 * half, 200)
    pt_cos = pt_symmetry_residual(cos_model, cos_grid) / np.max(
        np.abs(potential(cos_model, cos_grid))
    )
    pt_broken = pt_symmetry_residual(SCARF, grids["scarf"]) / sc_scale
    ok = (
        quasi <= 1e-11
        and pseudo <= 1e-11
        and pt_radial <= 1e-12
        and pt_cos <= 1e-12
        and pt_broken > 0.01
    )
    report(
        7,
        "similarity-identities",
        ok,
        f"quasi {quasi:.2e}, pseudo {pseudo:.2e}, pt {max(pt_radial, pt_cos):.2e}, "
        f"broken {pt_broken:.2f}",
    )


def test_criterion_8_state_residuals():
    half = 0.5 * math.pi / SCARF.k
    cell = np.linspace(-0.9 * half, 0.9 * half, 40)
    cases = [
        (replace(RADIAL, eps=0.0), np.linspace(0.4, 6.0, 40)),
        (RADIAL, np.linspace(-5.0, 5.0, 40)),
        (replace(SCARF, eps=0.0), cell),
        (SCARF, cell),
    ]
    worst = 0.0
    for model, grid in cases:
        for n in (1, 2, 3):
            worst = max(worst, schrodinger_residual(model, n, grid))
    report(8, "state-residuals", worst <= 1e-6, f"max residual {worst:.2e}")


def test_criterion_9_cli_contract(tmp_path):
    base = [
        "table", "--family", "radial", "--a", "2", "--k", "1.75",
        "--eps", "1.2", "--xmin", "-2", "--xmax", "2", "--points", "5",
        "--psi", "1",
    ]
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    codes = [
        cli.main(base + ["--out", str(out1)]),
        cli.main(base + ["--out", str(out2)]),
    ]
    identical = out1.read_bytes() == out2.read_bytes()
    golden = (
        "x,re_V,im_V,re_psi_1,im_psi_1,abs2_psi_1\n"
        "-2.0000000000000000e+00,2.9662065392331742e+00,"
        "-1.1945245239744042e+00,3.1206769412207308e-01,"
        "-1.0404133662043533e+00,1.1798462182913416e+00\n"
    )
    head = out1.read_text()[: len(golden)]
    exit_pass = codes == [0, 0]
    exit_fail = (
        cli.main(
            [
                "spectrum", "--family", "radial", "--a", "2", "--k", "1.75",
                "--grid-points", "600", "--tol-spectrum-rel", "1e-12",
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        == 1
    )
    exit_usage = cli.main(["table", "--family", "radial", "--a", "-1", "--k", "1"]) == 2
    manifest = json.loads((tmp_path / "g1.manifest.json").read_text())
    manifest_ok = set(manifest) == {"command", "parameters", "outputs", "checks"}
    ok = (
        identical
        and head == golden
        and exit_pass
        and exit_fail
        and exit_usage
        and manifest_ok
    )
    report(
        9,
        "cli-contract",
        ok,
        f"identical={identical}, golden={head == golden}, "
        f"exits=({exit_pass},{exit_fail},{exit_usage})",
    )
