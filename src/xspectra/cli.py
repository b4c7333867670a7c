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


# ---------------------------------------------------------------------------
# CSV encoding: _FMT for a whole block of float64 at once
# ---------------------------------------------------------------------------
#
# A field of _FMT is the 17 significant digits D of |x|, rounded to
# nearest with ties to even, and its decimal exponent k.  For |x| in
# [_FAST_MIN, _FAST_MAX) the block encoder forms y = |x| 10^(16 - k) as a
# double-double h + t (Dekker, Numer. Math. 18, 1971) and rounds it; a cell
# whose rounding it cannot decide goes to _exact_field, as Grisu3 hands
# such cells to an exact printer (Loitsch, PLDI 2010).

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# a fast cell's k, and the k of every 10^(16 - k) it is scaled by, lies
# in [_K_LO, _K_HI]: log10 misses k by at most one next to a power of ten
_K_LO, _K_HI = -282, 281
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter: halves of 26 bits each


def _pow10_table() -> np.ndarray:
    """Rows P_hi, its two Dekker halves, and P_lo for P = 10^(16 - k),
    k from _K_LO to _K_HI: P_hi is P rounded to a double and P_lo is
    P - P_hi rounded, both computed once from Python integers."""
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        s = 16 - k
        if s >= 0:
            p = 10**s
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            den = 10**-s
            hi.append(1 / den)
            num, d = hi[-1].as_integer_ratio()
            lo.append((d - den * num) / (den * d))
    hi = np.array(hi)
    head = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.array([hi, head, hi - head, lo])


_POW10 = _pow10_table()


def _field_words() -> tuple:
    """The uint32 words a fast cell is gathered from, and where each kind
    starts: the lead "[-]d.", 10^4 digit quads "0000".."9999", the
    exponent head "e+05"/"e-27", and the exponent tail plus separator
    ","/"\\n"/"4,"/"4\\n".  Unused bytes are zero."""
    lead = [b"%s%d." % (sign, d) for sign in (b"", b"-") for d in range(10)]
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    quads = quads.reshape(-1, 4)  # row i holds the digits of i
    exps = [b"e%+03d" % k for k in range(_K_LO, _K_HI + 1)]
    tails = [e[4:] + sep for e in exps for sep in (b",", b"\n")]
    words = np.concatenate([
        np.array(lead, dtype="S4").view(np.uint32),
        quads.view(np.uint32).ravel(),
        np.array([e[:4] for e in exps], dtype="S4").view(np.uint32),
        np.array(tails, dtype="S4").view(np.uint32),
    ])
    quad_at = len(lead)
    head_at = quad_at + len(quads)
    return words, quad_at, head_at, head_at + len(exps)


_WORDS, _QUAD_AT, _HEAD_AT, _TAIL_AT = _field_words()
_SLOT = 7  # words per cell: lead, four quads, exponent head, tail


def _exact_field(value: float) -> str:
    """One field by CPython's exact formatter: the oracle of the block
    encoder, and its path for the cells it cannot decide."""
    return _FMT % value


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """``a * 10**(16 - k)`` as a double-double ``(h, t)``: Dekker's exact
    product a * P_hi = h + e, plus a * P_lo."""
    p_hi, p_head, p_tail, p_lo = _POW10.take(k - _K_LO, axis=1)
    h = a * p_hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    e = ((a_head * p_head - h) + a_head * p_tail + a_tail * p_head) + a_tail * p_tail
    return h, e + a * p_lo


def _decimal(x: np.ndarray) -> tuple:
    """The 17 digits D and exponent k of each ``x`` as _FMT rounds them,
    and a mask of the cells where they are decided.  Zeros are decided
    as D = k = 0; NaN, +-inf and |x| outside [_FAST_MIN, _FAST_MAX) are
    not."""
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for NaN
    a[~fast] = 1.0  # a harmless stand-in; these cells are encoded apart
    k = np.floor(np.log10(a)).astype(np.intp)
    h, t = _scaled(a, k)
    # next to a power of ten log10 can miss k by one, so move k wherever
    # h + t lies outside [1e16, 1e17).  (h - 1e16) + t has the sign of
    # h + t - 1e16: the subtraction is exact by Sterbenz's lemma near
    # 1e16, and far from it the sign is plain.  Test h + t, not h: the
    # double nearest 1e-274 has y = 1e16 - 0.34 and prints 9.99...97e-275.
    low = (h - 1e16) + t < 0.0
    high = (h - 1e17) + t >= 0.0
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += np.where(high[fix], 1, -1)
        h[fix], t[fix] = _scaled(a[fix], k[fix])
    # h >= 1e16 > 2^53 is an integer, so D = h + round(t), and
    # frac = t - floor(t) is exact.  The error of h + t against the true
    # y: P_hi + P_lo is 10^(16 - k) to 2^-106 relative, a * P_lo rounds
    # by 2^-106 y and e + a * P_lo by 2^-105 y, in all at most 2^-104 y
    # < 2^-47 for y < 1e17 < 2^57.  So where frac is further than 2^-47
    # from 1/2, the rounding of h + t is that of y; 2^-40 leaves a
    # factor of 128.  Exact ties, such as 2^-25, fall inside and go to
    # the exact formatter, which breaks them to even.
    whole = np.floor(t)
    frac = t - whole
    digits = h.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17  # rounds up to 1e17: prints as 1e16, k + 1
    digits[carry] = 10**16
    k += carry
    decided = zero | (
        fast
        & (np.abs(frac - 0.5) > 2.0**-40)
        & ((h - 1e16) + t >= 0.0)
        & ((h - 1e17) + t < 0.0)
    )
    digits[zero] = 0
    k[zero] = 0
    return digits, k, decided


def _slots(x: np.ndarray, cols: int) -> np.ndarray:
    """Each cell of the row-major ``x`` as a slot of _SLOT words gathered
    from _WORDS, with the exact formatter's field in each undecided cell;
    bytes a field does not use are zero."""
    digits, k, decided = _decimal(x)
    cells = np.empty((x.size, _SLOT), np.uint32)
    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    cells[:, 0] = _WORDS[lead + 10 * np.signbit(x)]
    # the 16 digits after the point as four groups of four (tuple concatenation)
    quads = np.divmod(upper, 10**4) + np.divmod(lower, 10**4)
    for j, quad in enumerate(quads, 1):
        cells[:, j] = _WORDS[_QUAD_AT + quad]
    cells[:, 5] = _WORDS[_HEAD_AT - _K_LO + k]
    last = np.arange(x.size) % cols == cols - 1
    cells[:, 6] = _WORDS[_TAIL_AT + 2 * (k - _K_LO) + last]
    slots = cells.view(np.uint8)
    for i in np.flatnonzero(~decided):
        field = _exact_field(float(x[i])) + ("\n" if last[i] else ",")
        field = field.encode("ascii").ljust(4 * _SLOT, b"\0")
        slots[i] = np.frombuffer(field, np.uint8)
    return slots


def _encode_block(block: np.ndarray) -> str:
    """The CSV rows of a 2-D float64 ``block``, with exactly the bytes
    ``_FMT`` gives each field, for every float64 including NaN, +-inf,
    +-0 and subnormals."""
    slots = _slots(block.ravel(), block.shape[1])
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _csv_chunks(header: list, columns: list):
    yield ",".join(header) + "\n"
    table = np.column_stack(columns)
    for start in range(0, len(table), _CHUNK):
        yield _encode_block(table[start:start + _CHUNK])


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


def _finite_float(text: str) -> float:
    """Parse type of the model and range flags: a NaN or infinite value
    there gives only NaN tables or a manifest that is not valid JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_model_flags(p, family_required=True, eps_default=0.0):
    p.add_argument(
        "--family",
        choices=("radial", "scarf"),
        required=family_required,
        default=None,
        help="model family",
    )
    p.add_argument("--a", type=_finite_float, default=None, help="first index")
    p.add_argument("--b", type=_finite_float, default=None, help="second index (scarf)")
    p.add_argument("--k", type=_finite_float, default=None, help="scale parameter")
    p.add_argument(
        "--eps",
        type=_finite_float,
        default=eps_default,
        help="imaginary shift strength",
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
    p_table.add_argument("--xmin", type=_finite_float, default=None)
    p_table.add_argument("--xmax", type=_finite_float, default=None)
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
    p_spec.add_argument("--lo", type=_finite_float, default=None)
    p_spec.add_argument("--hi", type=_finite_float, default=None)
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
