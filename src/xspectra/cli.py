"""Command-line front-end: model tables, spectra, verification suites.

Outputs are CSV plus a JSON run manifest listing every emitted file and
every check with its measured value and tolerance.  All numeric CSV
fields use fixed 17-significant-digit scientific notation and newline
endings so identical arguments give byte-identical files.

Exit codes: 0 all checks pass, 1 a check failed, 2 argument or
validation error.  Diagnostics go to standard error, one per line,
prefixed ``error:`` or ``warn:``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import models, numerics
from .errors import (
    ArgumentError,
    ConsistencyError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    FactorizationError,
)
from .models import PotentialModel
from .pct import GMap, extract_potential_report
from .polycore import (
    count_real_roots_in,
    finite_quadrature,
    semi_infinite_algebraic_quadrature,
    semi_infinite_exp_quadrature,
)
from .xop import X1Family, x1_laguerre_norm, x1_polynomial

__all__ = ["main", "entry"]

_FMT = "%.16e"
# rows formatted per write: memory stays O(block) rather than O(file),
# and speed is flat from a few hundred rows up
_CHUNK = 4096

# every tolerance a check compares against, overridable by --tol-<name>
# on the subcommands that compare against it
_TOLERANCES = {
    "gram-offdiag": 1e-8,
    "gram-diag-rel": 1e-8,
    "extract-rel": 1e-8,
    "const-diff": 1e-9,
    "quasi-rel": 1e-11,
    "pseudo-rel": 1e-11,
    "pt-rel": 1e-12,
    "pt-broken-min": 1e-2,
    "spectrum-rel": 1e-3,
    "conv-lo": 3.5,
    "conv-hi": 4.5,
    "im-ratio": 1e-6,
    "eigen-residual": 1e-8,
    "residual": 1e-6,
}

# the tolerances `spectrum` compares against; `table` has none
_SPECTRUM_TOLERANCES = ("spectrum-rel", "im-ratio", "eigen-residual")

# reference parameter sets used whenever the caller does not pin a model
_FIGURE_RADIAL = {"a": 2.0, "k": 1.75, "eps": 1.2}
_FIGURE_SCARF = {"a": 1.75, "b": 3.0, "k": 1.25, "eps": 1.0}


def _err(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")


def _warn(message: str) -> None:
    sys.stderr.write(f"warn: {message}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _err(message)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool

    def row(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured": self.measured,
            "tolerance": self.tolerance,
        }


def _check_le(name, measured, tol) -> CheckResult:
    measured, tol = float(measured), float(tol)
    return CheckResult(name, measured, tol, measured <= tol)


def _check_ge(name, measured, tol) -> CheckResult:
    measured, tol = float(measured), float(tol)
    return CheckResult(name, measured, tol, measured >= tol)


def _check_in(name, measured, lo, hi) -> CheckResult:
    measured = float(measured)
    # encode an interval constraint as distance-to-interval vs zero width
    dist = max(lo - measured, measured - hi, 0.0)
    return CheckResult(name, measured, float(hi), dist == 0.0)


def _write_atomic(path: str, chunks) -> None:
    """Write an iterable of strings to ``path`` via a temp file and a
    rename, so the target holds either its old bytes or all new ones."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xspectra-")
    try:
        # mkstemp creates 0600; give the file the mode open() would.
        # The umask can only be read by setting it.
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(header: list, columns: list):
    yield ",".join(header) + "\n"
    table = np.column_stack(columns)
    row_fmt = ",".join([_FMT] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CHUNK):
        block = table[start:start + _CHUNK]
        # one % per block: tolist() gives Python floats, which format
        # exactly as the float64 scalars they came from
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


def _write_csv(path: str, header: list, columns: list) -> None:
    _write_atomic(path, _csv_chunks(header, columns))


def _write_manifest(path, command, parameters, outputs, checks) -> None:
    doc = {
        "command": command,
        "parameters": parameters,
        "outputs": list(outputs),
        "checks": [c.row() for c in checks],
    }
    _write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def _default_manifest(out: str) -> str:
    return os.path.splitext(out)[0] + ".manifest.json"


def _tolerances(args) -> dict:
    out = dict(_TOLERANCES)
    for name in _TOLERANCES:
        val = getattr(args, "tol_" + name.replace("-", "_"), None)
        if val is not None:
            out[name] = float(val)
    return out


def _reject_scarf_flags(args) -> None:
    if args.b is not None:
        raise ArgumentError("--b applies only to the scarf family")
    if args.branch is not None:
        raise ArgumentError("--branch applies only to the scarf family")


def _model_from_args(args) -> PotentialModel:
    family = {"radial": "radial_extended", "scarf": "scarf_extended"}[args.family]
    if family == "radial_extended":
        _reject_scarf_flags(args)
        model = PotentialModel(family, args.a, None, args.k, args.eps, None)
    else:
        if args.b is None:
            raise ArgumentError("the scarf family needs --b")
        model = PotentialModel(
            family, args.a, args.b, args.k, args.eps, args.branch
        )
    diagnostics = models.validate_params(model)
    if diagnostics:
        for d in diagnostics:
            _err(d)
        raise ArgumentError("invalid model parameters")
    return model


def _scarf_cell(m: PotentialModel) -> tuple:
    """Centre and half-width of the scarf model's central cell."""
    half = 0.5 * math.pi / abs(m.k)
    offset = -0.5 * math.pi / m.k if m.branch == "cos" else 0.0
    return offset, half


def _default_range(m: PotentialModel) -> tuple:
    if m.family == "radial_extended":
        return (0.05, 8.0) if m.eps == 0.0 else (-4.0, 4.0)
    offset, half = _scarf_cell(m)
    margin = 1e-3 * half
    return (offset - half + margin, offset + half - margin)


def _parse_levels(raw: str) -> list:
    try:
        levels = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError:
        raise ArgumentError(f"--psi wants comma-separated integers, got {raw!r}")
    if not levels or any(n < 1 for n in levels):
        raise ArgumentError(f"--psi levels must be >= 1, got {raw!r}")
    return levels


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    m = _model_from_args(args)
    lo, hi = _default_range(m)
    lo = args.xmin if args.xmin is not None else lo
    hi = args.xmax if args.xmax is not None else hi
    if not lo < hi:
        raise ArgumentError(f"need xmin < xmax, got ({lo:g}, {hi:g})")
    if args.points < 2:
        raise ArgumentError(f"need at least 2 grid points, got {args.points}")
    grid = np.linspace(lo, hi, args.points)
    v = models.potential(m, grid)
    header = ["x", "re_V", "im_V"]
    columns = [grid, np.real(v), np.imag(v)]
    for n in _parse_levels(args.psi) if args.psi else []:
        psi = models.wavefunction(m, n, grid)
        header += [f"re_psi_{n}", f"im_psi_{n}", f"abs2_psi_{n}"]
        columns += [np.real(psi), np.imag(psi), np.abs(psi) ** 2]
    bad = sum(int(np.sum(~np.isfinite(col))) for col in columns)
    checks = [_check_le("finite-values", float(bad), 0.0)]
    out = args.out or f"{args.family}_table.csv"
    manifest = args.manifest or _default_manifest(out)
    _write_csv(out, header, columns)
    parameters = {
        "family": args.family,
        "a": m.a,
        "b": m.b,
        "k": m.k,
        "eps": m.eps,
        "branch": m.branch,
        "xmin": float(lo),
        "xmax": float(hi),
        "points": int(args.points),
        "psi": args.psi,
    }
    _write_manifest(manifest, "table", parameters, [out, manifest], checks)
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    m = _model_from_args(args)
    tol = _tolerances(args)
    if m.family == "scarf_extended" and m.eps != 0.0:
        raise ArgumentError(
            "shifted scarf states are not normalizable on the real line, "
            "so no grid spectrum exists; verify that case with "
            "`verify --suite residuals` and `--suite hermiticity`"
        )
    complex_case = m.eps != 0.0
    if m.family == "radial_extended":
        lo, hi = (-12.0, 12.0) if complex_case else (1e-8, 12.0)
    else:
        offset, half = _scarf_cell(m)
        lo, hi = offset - half, offset + half
    lo = args.lo if args.lo is not None else lo
    hi = args.hi if args.hi is not None else hi
    npts = args.grid_points if args.grid_points is not None else (
        1200 if complex_case else 4000
    )
    op = numerics.discretize(m, lo, hi, npts)
    nmax = args.nmax
    formulas = np.array([models.energy(m, n) for n in range(1, nmax + 1)])
    checks = []
    header = ["n", "E_formula", "E_numeric", "abs_err", "rel_err"]
    if complex_case:
        header.append("im_lambda")
        numeric, imag = [], []
        for n in range(1, nmax + 1):
            res = numerics.eigen_near_shift(
                op, formulas[n - 1] + 1j * args.sigma_imag, args.iters
            )
            if not res.converged:
                _warn(
                    f"level {n}: no convergence after {args.iters} iterations "
                    f"(residual {res.residual:.3e})"
                )
            if res.shift_retries:
                _warn(
                    f"level {n}: {res.shift_retries} singular factorization(s); "
                    "retried with the shift perturbed by 1e-8 (1 + |shift|)"
                )
            checks.append(
                _check_le(f"eigen-residual-{n}", res.residual, tol["eigen-residual"])
            )
            checks.append(
                _check_le(
                    f"im-ratio-{n}",
                    abs(res.eigenvalue.imag) / abs(res.eigenvalue),
                    tol["im-ratio"],
                )
            )
            numeric.append(res.eigenvalue.real)
            imag.append(res.eigenvalue.imag)
        numeric = np.array(numeric)
        extra = [np.array(imag)]
    else:
        numeric = numerics.lowest_eigenvalues(op, nmax)
        extra = []
    abs_err = np.abs(numeric - formulas)
    rel_err = abs_err / np.abs(formulas)
    for n in range(1, nmax + 1):
        checks.append(_check_le(f"level-{n}-rel", rel_err[n - 1], tol["spectrum-rel"]))
    out = args.out or f"{args.family}_spectrum.csv"
    manifest = args.manifest or _default_manifest(out)
    _write_csv(
        out,
        header,
        [np.arange(1, nmax + 1), formulas, numeric, abs_err, rel_err] + extra,
    )
    parameters = {
        "family": args.family,
        "a": m.a,
        "b": m.b,
        "k": m.k,
        "eps": m.eps,
        "branch": m.branch,
        "lo": float(lo),
        "hi": float(hi),
        "grid_points": int(npts),
        "nmax": int(nmax),
        "tolerances": {k: tol[k] for k in _SPECTRUM_TOLERANCES},
    }
    _write_manifest(manifest, "spectrum", parameters, [out, manifest], checks)
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_orthogonality(args, tol) -> list:
    checks = []
    a_values = [args.a] if args.a is not None else [0.5, 2.0]
    nmax = args.nmax if args.nmax is not None else 6
    q_exp = semi_infinite_exp_quadrature()
    q_alg = semi_infinite_algebraic_quadrature()
    for a in a_values:
        fam = X1Family("laguerre", a)
        gram, ratio = numerics.gram_matrix(fam, nmax, q_exp)
        checks.append(_check_le(f"laguerre-a{a:g}-offdiag", ratio, tol["gram-offdiag"]))
        diag = np.diag(gram)
        want = np.array([x1_laguerre_norm(n, a) for n in range(1, nmax + 1)])
        checks.append(
            _check_le(
                f"laguerre-a{a:g}-diag-rel",
                np.max(np.abs(diag - want) / want),
                tol["gram-diag-rel"],
            )
        )
        gram_alg, _ = numerics.gram_matrix(fam, nmax, q_alg)
        checks.append(
            _check_le(
                f"laguerre-a{a:g}-map-agreement",
                np.max(np.abs(gram - gram_alg)) / np.max(diag),
                1e-9,
            )
        )
    fam_j = X1Family("jacobi", _FIGURE_SCARF["a"], _FIGURE_SCARF["b"])
    _, ratio = numerics.gram_matrix(fam_j, 4, finite_quadrature(-1.0, 1.0))
    checks.append(_check_le("jacobi-offdiag", ratio, tol["gram-offdiag"]))
    return checks


def _suite_zeros(args, tol) -> list:
    del tol  # exact integer contract, no tolerance
    checks = []
    a_values = [args.a] if args.a is not None else [0.5, 2.0, 5.0]
    nmax = args.nmax if args.nmax is not None else 8
    for a in a_values:
        fam = X1Family("laguerre", a)
        mismatches = 0
        for n in range(1, nmax + 1):
            p = x1_polynomial(fam, n)
            if count_real_roots_in(p, -math.inf, -a) != 1:
                mismatches += 1
            if count_real_roots_in(p, 0.0, math.inf) != n - 1:
                mismatches += 1
        checks.append(_check_le(f"zero-pattern-a{a:g}", float(mismatches), 0.0))
    return checks


def _pct_checks_for(kind, tol) -> list:
    checks = []
    if kind == "radial":
        fam = X1Family("laguerre", _FIGURE_RADIAL["a"])
        k = _FIGURE_RADIAL["k"]
        gm = GMap("quadratic", k, 0.0)
        grid = np.linspace(0.4, 6.0, 50)
        hermitian = PotentialModel(
            "radial_extended", _FIGURE_RADIAL["a"], None, k, 0.0
        )
        gm_shift = GMap("quadratic", k, 1j * _FIGURE_RADIAL["eps"])
        shift_grid = np.linspace(-5.0, 5.0, 50)
    else:
        fam = X1Family("jacobi", _FIGURE_SCARF["a"], _FIGURE_SCARF["b"])
        k = _FIGURE_SCARF["k"]
        gm = GMap("sine", k, 0.0)
        half = 0.5 * math.pi / k
        grid = np.linspace(-0.9 * half, 0.9 * half, 50)
        hermitian = PotentialModel(
            "scarf_extended", _FIGURE_SCARF["a"], _FIGURE_SCARF["b"], k, 0.0
        )
        gm_shift = GMap("sine", k, 1j * _FIGURE_SCARF["eps"])
        shift_grid = grid
    rep = extract_potential_report(gm, fam, (1, 2), grid)
    v_closed = models.potential(hermitian, grid)
    scale = np.max(np.abs(v_closed))
    checks.append(
        _check_le(
            f"{kind}-extracted-V-rel",
            np.max(np.abs(rep.v_values - v_closed)) / scale,
            tol["extract-rel"],
        )
    )
    for idx, n in enumerate((1, 2)):
        want = models.energy(hermitian, n)
        checks.append(
            _check_le(
                f"{kind}-energy-{n}-rel",
                abs(rep.energies[idx] - want) / want,
                tol["extract-rel"],
            )
        )
    de = abs(rep.energies[0] - rep.energies[1])
    checks.append(
        _check_le(f"{kind}-const-diff", rep.dw_spread / de, tol["const-diff"])
    )
    rep_shift = extract_potential_report(gm_shift, fam, (1, 2), shift_grid)
    shift_dev = max(
        abs(complex(rep_shift.energies[i]) - rep.energies[i]) / rep.energies[i]
        for i in range(2)
    )
    checks.append(_check_le(f"{kind}-shift-energy-invariance", shift_dev, 1e-9))
    if kind == "scarf":
        a, b = _FIGURE_SCARF["a"], _FIGURE_SCARF["b"]
        fitted = float(np.real(rep.terms["1/D^2"]))
        adjudicated = -8.0 * k * k * a * b
        alternative = 2.0 * k * k * ((a - b) ** 2 - 4.0 * a * b)
        checks.append(
            _check_le(
                "scarf-rational-matches-minus-8ab",
                abs(fitted - adjudicated) / abs(adjudicated),
                tol["extract-rel"],
            )
        )
        checks.append(
            _check_ge(
                "scarf-rational-excludes-alternative",
                abs(fitted - alternative) / abs(alternative),
                1e-2,
            )
        )
    return checks


def _suite_pct(args, tol) -> list:
    kinds = [args.family] if args.family else ["radial", "scarf"]
    checks = []
    for kind in kinds:
        checks += _pct_checks_for(kind, tol)
    return checks


def _figure_models(args) -> list:
    out = []
    if args.family in (None, "radial"):
        out.append(
            PotentialModel(
                "radial_extended",
                args.a if args.a is not None else _FIGURE_RADIAL["a"],
                None,
                args.k if args.k is not None else _FIGURE_RADIAL["k"],
                args.eps if args.eps is not None else _FIGURE_RADIAL["eps"],
            )
        )
    if args.family in (None, "scarf"):
        out.append(
            PotentialModel(
                "scarf_extended",
                args.a if args.a is not None else _FIGURE_SCARF["a"],
                args.b if args.b is not None else _FIGURE_SCARF["b"],
                args.k if args.k is not None else _FIGURE_SCARF["k"],
                args.eps if args.eps is not None else _FIGURE_SCARF["eps"],
                args.branch,
            )
        )
    return out


def _similarity_grid(m: PotentialModel) -> np.ndarray:
    if m.family == "radial_extended":
        return np.linspace(-4.0, 4.0, 200)
    offset, half = _scarf_cell(m)
    return np.linspace(offset - 0.98 * half, offset + 0.98 * half, 200)


def _suite_hermiticity(args, tol) -> list:
    checks = []
    for m in _figure_models(args):
        if m.eps == 0.0:
            raise ArgumentError(
                "hermiticity suite needs eps != 0 (identities are trivial)"
            )
        label = "radial" if m.family == "radial_extended" else "scarf"
        grid = _similarity_grid(m)
        scale = float(np.max(np.abs(models.potential(m, grid))))
        checks.append(
            _check_le(
                f"{label}-quasi-rel",
                models.quasi_hermiticity_residual(m, grid) / scale,
                tol["quasi-rel"],
            )
        )
        checks.append(
            _check_le(
                f"{label}-pseudo-rel",
                models.pseudo_hermiticity_residual(m, grid) / scale,
                tol["pseudo-rel"],
            )
        )
        pt = models.pt_symmetry_residual(m, grid) / scale
        if m.family == "radial_extended":
            checks.append(_check_le("radial-pt-rel", pt, tol["pt-rel"]))
        elif m.branch == "sin" and m.a != m.b:
            checks.append(
                _check_ge("scarf-sin-pt-broken", pt, tol["pt-broken-min"])
            )
            cos_model = PotentialModel(
                m.family, m.a, m.b, m.k, m.eps, "cos"
            )
            cos_grid = _similarity_grid(cos_model)
            cos_scale = float(np.max(np.abs(models.potential(cos_model, cos_grid))))
            checks.append(
                _check_le(
                    "scarf-cos-pt-rel",
                    models.pt_symmetry_residual(cos_model, cos_grid) / cos_scale,
                    tol["pt-rel"],
                )
            )
        else:
            checks.append(_check_le(f"{label}-pt-rel", pt, tol["pt-rel"]))
    return checks


def _real_spectrum_checks(label, m0, lo, hi, tol) -> list:
    """Lowest four grid levels against the formula at 4000 points, and
    the h^2 convergence factor of their errors from 2000 to 4000 points."""
    want = np.array([models.energy(m0, n) for n in range(1, 5)])
    errs = {}
    for npts in (2000, 4000):
        op = numerics.discretize(m0, lo, hi, npts)
        errs[npts] = np.abs(numerics.lowest_eigenvalues(op, 4) - want)
    factors = errs[2000] / errs[4000]
    conv = (tol["conv-lo"], tol["conv-hi"])
    return [
        _check_le(f"{label}-spectrum-rel", np.max(errs[4000] / want), tol["spectrum-rel"]),
        _check_in(f"{label}-conv-factor-min", float(np.min(factors)), *conv),
        _check_in(f"{label}-conv-factor-max", float(np.max(factors)), *conv),
    ]


def _suite_spectra(args, tol) -> list:
    checks = []
    if args.family in (None, "radial"):
        m0 = PotentialModel("radial_extended", _FIGURE_RADIAL["a"], None, _FIGURE_RADIAL["k"], 0.0)
        checks += _real_spectrum_checks("radial", m0, 1e-8, 12.0, tol)
        mc = PotentialModel(
            "radial_extended", _FIGURE_RADIAL["a"], None, _FIGURE_RADIAL["k"], _FIGURE_RADIAL["eps"]
        )
        op = numerics.discretize(mc, -12.0, 12.0, 1200)
        for n in (1, 2, 3):
            e_n = models.energy(mc, n)
            res = numerics.eigen_near_shift(op, e_n + 0.3j, 60)
            checks.append(
                _check_le(
                    f"radial-complex-{n}-im-ratio",
                    abs(res.eigenvalue.imag) / abs(res.eigenvalue),
                    tol["im-ratio"],
                )
            )
            checks.append(
                _check_le(
                    f"radial-complex-{n}-re-rel",
                    abs(res.eigenvalue.real - e_n) / e_n,
                    tol["spectrum-rel"],
                )
            )
    if args.family in (None, "scarf"):
        m0 = PotentialModel(
            "scarf_extended", _FIGURE_SCARF["a"], _FIGURE_SCARF["b"], _FIGURE_SCARF["k"], 0.0
        )
        _, half = _scarf_cell(m0)
        checks += _real_spectrum_checks("scarf", m0, -half, half, tol)
    return checks


def _suite_residuals(args, tol) -> list:
    checks = []
    for m in _figure_models(args):
        label = "radial" if m.family == "radial_extended" else "scarf"
        hermitian = replace(m, eps=0.0)
        if m.family == "radial_extended":
            grids = {0.0: np.linspace(0.4, 6.0, 40), m.eps: np.linspace(-5.0, 5.0, 40)}
        else:
            offset, half = _scarf_cell(m)
            cell = np.linspace(offset - 0.9 * half, offset + 0.9 * half, 40)
            grids = {0.0: cell, m.eps: cell}
        for eps, grid in grids.items():
            model = hermitian if eps == 0.0 else m
            for n in (1, 2, 3):
                checks.append(
                    _check_le(
                        f"{label}-eps{eps:g}-n{n}",
                        numerics.schrodinger_residual(model, n, grid),
                        tol["residual"],
                    )
                )
    return checks


_SUITE_FUNCS = {
    "orthogonality": _suite_orthogonality,
    "zeros": _suite_zeros,
    "pct": _suite_pct,
    "hermiticity": _suite_hermiticity,
    "spectra": _suite_spectra,
    "residuals": _suite_residuals,
}


def cmd_verify(args) -> int:
    if args.family == "radial":
        _reject_scarf_flags(args)
    tol = _tolerances(args)
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks += _SUITE_FUNCS[name](args, tol)
    for c in checks:
        print(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
            f"measured={c.measured:.6e} tolerance={c.tolerance:.6e}"
        )
    manifest = args.manifest or "verify.manifest.json"
    parameters = {
        "suite": args.suite,
        "family": args.family,
        "a": args.a,
        "b": args.b,
        "k": args.k,
        "eps": args.eps,
        "branch": args.branch,
        "nmax": args.nmax,
        "tolerances": tol,
    }
    _write_manifest(manifest, "verify", parameters, [manifest], checks)
    failed = [c for c in checks if not c.passed]
    for c in failed:
        _warn(f"check failed: {c.name} measured {c.measured:.6e}")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_flags(p, family_required=True, eps_default=0.0):
    p.add_argument(
        "--family",
        choices=("radial", "scarf"),
        required=family_required,
        default=None,
        help="model family",
    )
    p.add_argument("--a", type=float, default=None, help="first index")
    p.add_argument("--b", type=float, default=None, help="second index (scarf)")
    p.add_argument("--k", type=float, default=None, help="scale parameter")
    p.add_argument(
        "--eps", type=float, default=eps_default, help="imaginary shift strength"
    )
    p.add_argument(
        "--branch", choices=("sin", "cos"), default=None, help="scarf branch"
    )


def _add_tol_flags(p, names):
    for name in names:
        p.add_argument(
            f"--tol-{name}",
            type=float,
            default=None,
            metavar="X",
            help=f"override tolerance {name} (default {_TOLERANCES[name]:g})",
        )


def _require_model_args(args):
    missing = [flag for flag, val in (("--a", args.a), ("--k", args.k)) if val is None]
    if missing:
        raise ArgumentError(f"missing required flags: {', '.join(missing)}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="xspectra",
        description=(
            "Tables, spectra, and verification suites for the rationally "
            "extended oscillator and trigonometric models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="potential/state tables as CSV")
    _add_model_flags(p_table)
    p_table.add_argument("--xmin", type=float, default=None)
    p_table.add_argument("--xmax", type=float, default=None)
    p_table.add_argument("--points", type=int, default=401)
    p_table.add_argument(
        "--psi", default=None, help="comma-separated state indices to tabulate"
    )
    p_table.add_argument("--out", default=None, help="CSV output path")
    p_table.add_argument("--manifest", default=None, help="JSON manifest path")
    p_table.set_defaults(func=cmd_table, needs_model=True)

    p_spec = sub.add_parser("spectrum", help="formula vs grid eigenvalues as CSV")
    _add_model_flags(p_spec)
    p_spec.add_argument("--nmax", type=int, default=4)
    p_spec.add_argument("--lo", type=float, default=None)
    p_spec.add_argument("--hi", type=float, default=None)
    p_spec.add_argument(
        "--grid-points", type=int, default=None, help="interior grid points"
    )
    p_spec.add_argument("--iters", type=int, default=60)
    p_spec.add_argument(
        "--sigma-imag",
        type=float,
        default=0.3,
        help="imaginary offset of the inverse-iteration shift",
    )
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--manifest", default=None)
    _add_tol_flags(p_spec, _SPECTRUM_TOLERANCES)
    p_spec.set_defaults(func=cmd_spectrum, needs_model=True)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", choices=[*_SUITE_FUNCS, "all"], required=True)
    _add_model_flags(p_ver, family_required=False, eps_default=None)
    p_ver.add_argument("--nmax", type=int, default=None)
    p_ver.add_argument("--manifest", default=None)
    _add_tol_flags(p_ver, _TOLERANCES)
    p_ver.set_defaults(func=cmd_verify, needs_model=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "needs_model", False):
            _require_model_args(args)
        if getattr(args, "nmax", None) is not None and args.nmax < 1:
            raise ArgumentError(f"--nmax must be >= 1, got {args.nmax}")
        return args.func(args)
    except (ArgumentError, DomainError) as exc:
        _err(str(exc))
        return 2
    except (
        ConsistencyError,
        ConstructionError,
        ConvergenceError,
        EvaluationError,
        FactorizationError,
    ) as exc:
        _err(str(exc))
        return 1


def entry() -> None:
    raise SystemExit(main())
