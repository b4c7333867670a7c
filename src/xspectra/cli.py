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
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import models, numerics
from .errors import (
    ArgumentError,
    ConsistencyError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    EvaluationError,
)
from .models import PotentialModel
from .pct import GMap, extract_potential_report
from .polycore import (
    count_real_roots_in,
    finite_quadrature,
    semi_infinite_algebraic_quadrature,
    semi_infinite_exp_quadrature,
)
from .xop import X1Family, x1_jacobi_norm, x1_laguerre_norm, x1_polynomial

__all__ = ["main", "entry"]

_FMT = "%.16e"
# cells (rows x columns) evaluated and encoded per block, so a table's
# memory does not grow with its rows.  In a sweep of 4096 to 12288 cells
# at 3, 12 and 21 columns (BENCH_table_stream.json), a fresh 1e5-point
# table took ~240 minor page faults up to 10240 cells at 3 and 12
# columns and up to 7168 at 21, against 5k to 44k at 12288 cells (most
# likely glibc growing and trimming its heap for each block); warm CPU
# time fell by ~8 % from 6144 to 9216 cells
_BLOCK_CELLS = 9216

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
    # the spectra suite's Richardson-extrapolated Hermitian levels: their
    # rounding floor on the 2000-point grids is (r + 1)/(r - 1) eps ||T|| / E_1
    # <= 2.3e-10 (Scarf) and the h^4 term left is measured <= 3.9e-10
    # (radial level 4); 1e-8 is 1e5 times tighter than spectrum-rel
    "extrapolated-rel": 1e-8,
    "conv-lo": 3.5,
    "conv-hi": 4.5,
    "im-ratio": 1e-6,
    "eigen-residual": 1e-8,
    "residual": 1e-6,
}

# the reference model of each family, which `verify` checks wherever the
# caller pins no model, and the model fields each family takes from flags
_FIGURE = {
    "radial": PotentialModel("radial_extended", 2.0, None, 1.75, 1.2),
    "scarf": PotentialModel("scarf_extended", 1.75, 3.0, 1.25, 1.0),
}
_MODEL_FIELDS = {"radial": ("a", "k", "eps"), "scarf": ("a", "b", "k", "eps", "branch")}


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


def _row(name, measured, tolerance, lo, hi) -> dict:
    """A check as the manifest row that `_finish` writes and `verify`
    prints: it passes where ``lo <= measured <= hi``.  A measured value
    that is not finite is refused, as strict JSON has no NaN or infinity."""
    measured = float(measured)
    if not math.isfinite(measured):
        raise EvaluationError(f"check {name} measured {measured}, not a finite value")
    status = "pass" if lo <= measured <= hi else "fail"
    return {"name": name, "status": status, "measured": measured, "tolerance": float(tolerance)}


def _check_le(name, measured, tol) -> dict:
    return _row(name, measured, tol, -math.inf, tol)


def _check_ge(name, measured, tol) -> dict:
    return _row(name, measured, tol, tol, math.inf)


def _check_in(name, measured, lo, hi) -> dict:
    return _row(name, measured, hi, lo, hi)


def _write_atomic(path: str, chunks) -> None:
    """Write an iterable of bytes to ``path`` via a temp file and a
    rename, so the target holds either its old bytes or all new ones.  A
    path that cannot be written is refused as an argument."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xspectra-")
        try:
            # mkstemp creates 0600; give the file the mode open() would.
            # The umask can only be read by setting it.
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(fd, 0o666 & ~mask)
            with os.fdopen(fd, "wb") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror}") from None


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
# a fast cell's k from log10 lies in [_K_LO, _K_HI], as it misses by at
# most one next to a power of ten; an undecided cell indexes the tables
# with it too
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
    # next to a power of ten log10 can miss k by one, and D can round up
    # to 10^17: such a cell is undecided.  (h - 1e16) + t has the sign of
    # h + t - 1e16: the subtraction is exact by Sterbenz's lemma near
    # 1e16, and far from it the sign is plain.  Test h + t, not h: the
    # double nearest 1e-274 has y = 1e16 - 0.34 and prints 9.99...97e-275.
    decided = zero | (
        fast
        & (np.abs(frac - 0.5) > 2.0**-40)
        & ((h - 1e16) + t >= 0.0)
        & (digits < 10**17)
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


def _encode_block(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 ``block``, with exactly the bytes
    ``_FMT`` gives each field, for every float64 including NaN, +-inf,
    +-0 and subnormals."""
    slots = _slots(block.ravel(), block.shape[1])
    return slots.tobytes().translate(None, b"\0")


def _write_csv(args, command, header, blocks) -> list:
    """Write a subcommand's CSV, the header line and then the rows of
    each 2-D float64 array of the iterable ``blocks``, taken as the
    writer reaches it, and return the run's outputs: the CSV, then the
    manifest (next to the CSV unless --manifest names it; the two must
    be different files, which is checked before any block is taken)."""
    out = args.out or f"{args.family}_{command}.csv"
    outputs = [out, args.manifest or os.path.splitext(out)[0] + ".manifest.json"]
    if os.path.realpath(out) == os.path.realpath(outputs[1]):
        raise ArgumentError(f"the CSV and the manifest name one file, {out}")
    head = (",".join(header) + "\n").encode("ascii")
    _write_atomic(out, itertools.chain([head], map(_encode_block, blocks)))
    return outputs


def _finish(args, command, parameters, checks, outputs=None) -> int:
    """Every subcommand's ending: write the manifest, the last of
    ``outputs`` (by default the only one), warn once per failed check,
    and return the exit code."""
    outputs = outputs or [args.manifest or f"{command}.manifest.json"]
    doc = {
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "checks": checks,
    }
    _write_atomic(outputs[-1], [json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"])
    failed = [c for c in checks if c["status"] == "fail"]
    for c in failed:
        _warn(f"check failed: {c['name']} measured {c['measured']:.6e}")
    return 1 if failed else 0


def _refuse_unread(args, flags, reader: str) -> None:
    """Refuse each of ``flags`` that the caller set but ``reader`` does not read."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_"), None) is not None:
            raise ArgumentError(f"--{flag} is not read by {reader}")


class _Tolerances(dict):
    """Each tolerance, or its --tol-<name> value, recording the names the
    checks look up: a manifest lists exactly the ones compared against."""

    def __init__(self, args):
        given = {n: getattr(args, "tol_" + n.replace("-", "_"), None) for n in _TOLERANCES}
        super().__init__({n: _TOLERANCES[n] if v is None else v for n, v in given.items()})
        self.args, self.read = args, set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def compared(self, reader: str) -> dict:
        _refuse_unread(self.args, [f"tol-{n}" for n in self if n not in self.read], reader)
        return {name: value for name, value in self.items() if name in self.read}


def _model(kind: str, args) -> PotentialModel:
    """The reference model of family ``kind`` with each model flag the
    caller set, validated.  A family named by --family refuses the flags
    of fields it does not have; `table` and `spectrum` need --b for the
    Scarf family, as they take no reference value."""
    fields = _MODEL_FIELDS[kind]
    if kind == args.family:
        for name in _MODEL_FIELDS["scarf"]:
            if name not in fields and getattr(args, name) is not None:
                raise ArgumentError(f"--{name} applies only to the scarf family")
    if kind == "scarf" and args.b is None and args.command != "verify":
        raise ArgumentError("the scarf family needs --b")
    flags = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    model = replace(_FIGURE[kind], **flags)
    diagnostics = models.validate_params(model)
    if diagnostics:
        for d in diagnostics:
            _err(d)
        raise ArgumentError("invalid model parameters")
    return model


def _model_parameters(family: str, m: PotentialModel) -> dict:
    return {"family": family, "a": m.a, "b": m.b, "k": m.k, "eps": m.eps, "branch": m.branch}


# where each use samples a model: the radial interval while Hermitian
# (the pole at x = 0 on the line) and once shifted, and the fraction of the
# Scarf model's central cell.  The hermiticity suite refuses a Hermitian
# model, so `similarity` has no Hermitian interval
_EXTENTS = {
    "table": ((0.05, 8.0), (-4.0, 4.0), 0.999),
    "spectrum": ((1e-8, 12.0), (-12.0, 12.0), 1.0),
    "states": ((0.4, 6.0), (-5.0, 5.0), 0.9),
    "similarity": (None, (-4.0, 4.0), 0.98),
}


def _extent(m: PotentialModel, use: str) -> tuple:
    """The interval (lo, hi) where ``use`` samples m, from _EXTENTS."""
    hermitian, shifted, fraction = _EXTENTS[use]
    if m.family == "radial_extended":
        return hermitian if m.eps == 0.0 else shifted
    centre, half = models.cell(m)
    return centre - fraction * half, centre + fraction * half


# grid spectra: `spectrum` counts a Hermitian model's levels by Sturm
# multisection on _REAL_POINTS points; a shifted one takes inverse
# iteration from E_n + i _SIGMA_IMAG for at most _ITERS steps, on fewer
# points as each step is a complex LU.  `verify --suite spectra` solves
# the Hermitian levels on the _SUITE_POINTS pair and extrapolates them
_REAL_POINTS, _COMPLEX_POINTS = 4000, 1200
_SUITE_POINTS = (1000, 2000)
_SIGMA_IMAG, _ITERS = 0.3, 60


def _extrapolated(coarse, fine, points) -> np.ndarray:
    """Richardson's extrapolation of O(h^2) grid levels from a coarse and
    a fine grid of one interval with ``points`` interior points each:
    (r E(h') - E(h)) / (r - 1), with r = (h / h')^2 from the exact
    spacings h = (hi - lo) / (N + 1)."""
    r = ((points[1] + 1) / (points[0] + 1)) ** 2
    return (r * fine - coarse) / (r - 1.0)


def _shifted_levels(m, lo, hi, npts, nmax, sigma_imag=_SIGMA_IMAG, iters=_ITERS) -> list:
    """eigen_near_shift's result for each of the nmax lowest levels of the
    shifted radial model m's grid Hamiltonian on (lo, hi) with npts
    interior points, from E_n + i sigma_imag (it checks sigma_imag and
    iters), with a warning for each level that did not converge."""
    op = numerics.discretize(m, lo, hi, npts)
    results = [
        numerics.eigen_near_shift(op, models.energy(m, n) + 1j * sigma_imag, iters)
        for n in range(1, nmax + 1)
    ]
    for n, res in enumerate(results, 1):
        if not res.converged:
            _warn(f"level {n}: no convergence after {iters} iterations "
                  f"(residual {res.residual:.3e})")
    return results


def _parse_levels(raw: str) -> list:
    try:
        levels = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError:
        raise ArgumentError(f"--psi wants comma-separated integers, got {raw!r}")
    if not levels:
        raise ArgumentError(f"--psi names no level, got {raw!r}")
    if any(n < 1 for n in levels):
        raise ArgumentError(f"--psi levels must be >= 1, got {raw!r}")
    for i, n in enumerate(levels):
        if n in levels[:i]:
            raise ArgumentError(f"--psi lists level {n} more than once, got {raw!r}")
    return levels


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    m = _model(args.family, args)
    lo, hi = _extent(m, "table")
    lo = args.xmin if args.xmin is not None else lo
    hi = args.xmax if args.xmax is not None else hi
    if not lo < hi:
        raise ArgumentError(f"need xmin < xmax, got ({lo:g}, {hi:g})")
    if args.points < 2:
        raise ArgumentError(f"need at least 2 grid points, got {args.points}")
    levels = _parse_levels(args.psi) if args.psi is not None else []
    header = ["x", "re_V", "im_V"]
    for n in levels:
        header += [f"re_psi_{n}", f"im_psi_{n}", f"abs2_psi_{n}"]
    grid = np.linspace(lo, hi, args.points)
    bad = 0  # non-finite cells in the blocks written so far

    def blocks():
        # the models evaluate point by point, so every block gives the
        # whole grid's bits at its points, a block of one row included
        nonlocal bad
        step = max(1, _BLOCK_CELLS // len(header))
        for start in range(0, args.points, step):
            x = grid[start:start + step]
            v = models.potential(m, x)
            columns = [x, np.real(v), np.imag(v)]
            if levels:
                for psi in models.wavefunction(m, levels, x):
                    columns += [np.real(psi), np.imag(psi), np.abs(psi) ** 2]
            rows = np.column_stack(columns)
            bad += int(np.count_nonzero(~np.isfinite(rows)))
            yield rows

    outputs = _write_csv(args, "table", header, blocks())
    checks = [_check_le("finite-values", float(bad), 0.0)]
    parameters = {
        **_model_parameters(args.family, m),
        "xmin": float(lo),
        "xmax": float(hi),
        "points": int(args.points),
        "psi": args.psi,
    }
    return _finish(args, "table", parameters, checks, outputs)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    m = _model(args.family, args)
    if m.eps == 0.0:
        _refuse_unread(args, ("iters", "sigma-imag"), "a Hermitian spectrum")
    elif m.family == "scarf_extended":
        raise ArgumentError(
            "shifted scarf states are not normalizable on the real line, "
            "so no grid spectrum exists; verify that case with "
            "`verify --suite residuals` and `--suite hermiticity`"
        )
    iters = _ITERS if args.iters is None else args.iters
    sigma_imag = _SIGMA_IMAG if args.sigma_imag is None else args.sigma_imag
    tol = _Tolerances(args)
    lo, hi = _extent(m, "spectrum")
    lo = args.lo if args.lo is not None else lo
    hi = args.hi if args.hi is not None else hi
    npts = args.grid_points if args.grid_points is not None else (
        _COMPLEX_POINTS if m.eps != 0.0 else _REAL_POINTS
    )
    nmax = args.nmax
    checks, extra = [], []
    header = ["n", "E_formula", "E_numeric", "abs_err", "rel_err"]
    if m.eps == 0.0:
        numeric = numerics.lowest_eigenvalues(numerics.discretize(m, lo, hi, npts), nmax)
    else:
        results = _shifted_levels(m, lo, hi, npts, nmax, sigma_imag, iters)
        levels = np.array([res.eigenvalue for res in results])
        numeric, extra = levels.real, [levels.imag]
        header.append("im_lambda")
        for n, res in enumerate(results, 1):
            lam = res.eigenvalue
            checks += [
                _check_le(f"eigen-residual-{n}", res.residual, tol["eigen-residual"]),
                _check_le(f"im-ratio-{n}", abs(lam.imag) / abs(lam), tol["im-ratio"]),
            ]
    formulas = np.array([models.energy(m, n) for n in range(1, nmax + 1)])
    abs_err = np.abs(numeric - formulas)
    rel_err = abs_err / np.abs(formulas)
    for n in range(1, nmax + 1):
        checks.append(_check_le(f"level-{n}-rel", rel_err[n - 1], tol["spectrum-rel"]))
    parameters = {
        **_model_parameters(args.family, m),
        "lo": float(lo),
        "hi": float(hi),
        "grid_points": int(npts),
        "nmax": int(nmax),
        "tolerances": tol.compared("a Hermitian spectrum"),
    }
    if m.eps != 0.0:
        # the shift and the step cap decide which level is found
        parameters.update(iters=int(iters), sigma_imag=float(sigma_imag))
    rows = np.column_stack([np.arange(1, nmax + 1), formulas, numeric, abs_err, rel_err] + extra)
    outputs = _write_csv(args, "spectrum", header, [rows])
    return _finish(args, "spectrum", parameters, checks, outputs)


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
    fam_j = models.x1_family(_FIGURE["scarf"])
    gram, ratio = numerics.gram_matrix(fam_j, 4, finite_quadrature(-1.0, 1.0))
    checks.append(_check_le("jacobi-offdiag", ratio, tol["gram-offdiag"]))
    want = np.array([x1_jacobi_norm(n, fam_j.a, fam_j.b) for n in range(1, 5)])
    rel = np.max(np.abs(np.diag(gram) - want) / want)
    checks.append(_check_le("jacobi-diag-rel", rel, tol["gram-diag-rel"]))
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


def _suite_pct(kind, m, tol) -> list:
    checks = []
    hermitian = replace(m, eps=0.0)
    fam = models.x1_family(m)
    g = "quadratic" if fam.kind == "laguerre" else "sine"

    def extract(model, xs):  # the report and its V against model.potential
        gm = GMap(g, m.k, models._offset(m) + 1j * model.eps)
        rep = extract_potential_report(gm, fam, (1, 2), xs)
        want = models.potential(model, xs)
        return rep, np.max(np.abs(rep.v_values - want)) / np.max(np.abs(want))

    rep, rel = extract(hermitian, np.linspace(*_extent(hermitian, "states"), 50))
    checks.append(_check_le(f"{kind}-extracted-V-rel", rel, tol["extract-rel"]))
    for idx, n in enumerate((1, 2)):
        want = models.energy(hermitian, n)
        rel = abs(rep.energies[idx] - want) / want
        checks.append(_check_le(f"{kind}-energy-{n}-rel", rel, tol["extract-rel"]))
    checks.append(_check_le(f"{kind}-const-diff", rep.dw_spread / abs(rep.gap), tol["const-diff"]))
    if m.eps != 0.0:
        _, rel = extract(m, np.linspace(*_extent(m, "states"), 50))
        checks.append(_check_le(f"{kind}-shifted-V-rel", rel, tol["extract-rel"]))
    if kind == "scarf":
        # V's exact 1/D^2 coefficient over k^2, with D = a + b - (b - a) g; a
        # candidate is excluded where it misses by more than extract-rel
        a, b = Fraction(m.a), Fraction(m.b)
        exact = rep.terms[((a + b) / (b - a), 2)] * (a - b) ** 2
        adjudicated, alternative = -8 * a * b, 2 * ((a - b) ** 2 - 4 * a * b)
        rel = abs(exact - adjudicated) / abs(adjudicated)
        checks.append(_check_le("scarf-rational-matches-minus-8ab", rel, tol["extract-rel"]))
        rel = abs(exact - alternative) / abs(alternative)
        checks.append(_check_ge("scarf-rational-excludes-alternative", rel, tol["extract-rel"]))
    return checks


def _suite_hermiticity(kind, m, tol) -> list:
    def relative(model, *residuals):
        # each residual over max|V| on model's similarity grid
        grid = np.linspace(*_extent(model, "similarity"), 200)
        scale = float(np.max(np.abs(models.potential(model, grid))))
        return [residual(model, grid) / scale for residual in residuals]

    quasi, pseudo, pt = relative(m, models.quasi_hermiticity_residual,
                                 models.pseudo_hermiticity_residual, models.pt_symmetry_residual)
    checks = [
        _check_le(f"{kind}-quasi-rel", quasi, tol["quasi-rel"]),
        _check_le(f"{kind}-pseudo-rel", pseudo, tol["pseudo-rel"]),
    ]
    if m.branch == "sin":
        checks.append(_check_ge("scarf-sin-pt-broken", pt, tol["pt-broken-min"]))
        (cos_pt,) = relative(replace(m, branch="cos"), models.pt_symmetry_residual)
        checks.append(_check_le("scarf-cos-pt-rel", cos_pt, tol["pt-rel"]))
    else:
        checks.append(_check_le(f"{kind}-pt-rel", pt, tol["pt-rel"]))
    return checks


def _suite_spectra(kind, m, tol) -> list:
    """The lowest four levels of m's Hermitian partner on the _SUITE_POINTS
    grids, the fine grid's error, its h^2 convergence from the coarse one
    and their Richardson extrapolation; then, for a shifted radial model,
    its three lowest levels.  The coarse grid's levels, O(h^2) from the
    fine grid's, seed the fine grid's first Sturm sweep: that moves its
    probes, and its levels by no more than its stopping floor."""
    conv = (tol["conv-lo"], tol["conv-hi"])
    m0 = replace(m, eps=0.0)
    want = np.array([models.energy(m0, n) for n in range(1, 5)])
    levels = []
    for npts in _SUITE_POINTS:
        op = numerics.discretize(m0, *_extent(m0, "spectrum"), npts)
        levels.append(numerics.lowest_eigenvalues(op, 4, near=levels[-1] if levels else None))
    coarse, fine = (np.abs(lev - want) for lev in levels)
    factors = coarse / fine
    extrapolated = _extrapolated(*levels, _SUITE_POINTS)
    checks = [
        _check_le(f"{kind}-spectrum-rel", np.max(fine / want), tol["spectrum-rel"]),
        _check_in(f"{kind}-conv-factor-min", float(np.min(factors)), *conv),
        _check_in(f"{kind}-conv-factor-max", float(np.max(factors)), *conv),
        _check_le(
            f"{kind}-extrapolated-rel",
            np.max(np.abs(extrapolated - want) / want),
            tol["extrapolated-rel"],
        ),
    ]
    if kind == "scarf" or m.eps == 0.0:
        return checks
    for n, res in enumerate(_shifted_levels(m, *_extent(m, "spectrum"), _COMPLEX_POINTS, 3), 1):
        e_n, lam = models.energy(m, n), res.eigenvalue
        for name, measured, bound in (
            ("eigen-residual", res.residual, tol["eigen-residual"]),
            ("im-ratio", abs(lam.imag) / abs(lam), tol["im-ratio"]),
            ("re-rel", abs(lam.real - e_n) / e_n, tol["spectrum-rel"]),
        ):
            checks.append(_check_le(f"radial-complex-{n}-{name}", measured, bound))
    return checks


def _suite_residuals(kind, m, tol) -> list:
    checks = []
    # the Hermitian partner on its own grid, then m on its own if shifted
    partners = [replace(m, eps=0.0)] + ([m] if m.eps != 0.0 else [])
    for model in partners:
        grid = np.linspace(*_extent(model, "states"), 40)
        for n in (1, 2, 3):
            residual = numerics.schrodinger_residual(model, n, grid)
            checks.append(_check_le(f"{kind}-eps{model.eps:g}-n{n}", residual, tol["residual"]))
    return checks


# each suite and the model flags it reads: `verify` refuses a flag, like a
# --tol-<name>, that nothing it runs reads, rather than record an unused value.
# A suite that reads --family checks each family's model, or --family's alone
_MODEL_FLAGS = ("family", *_MODEL_FIELDS["scarf"])  # what _model reads
_SUITES = {
    "orthogonality": (_suite_orthogonality, ("a", "nmax")),
    "zeros": (_suite_zeros, ("a", "nmax")),
    "pct": (_suite_pct, _MODEL_FLAGS),
    "hermiticity": (_suite_hermiticity, _MODEL_FLAGS),
    "spectra": (_suite_spectra, _MODEL_FLAGS),
    "residuals": (_suite_residuals, _MODEL_FLAGS),
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    read = {flag for name in names for flag in _SUITES[name][1]}
    flags, reader = (*_MODEL_FLAGS, "nmax"), f"the {args.suite} suite"
    _refuse_unread(args, [flag for flag in flags if flag not in read], reader)
    tol = _Tolerances(args)
    # every model is built, and so validated, before any suite runs; none is
    # built for `orthogonality` or `zeros`, where --a is a Laguerre index
    kinds = [args.family] if args.family else list(_MODEL_FIELDS)
    built = [(kind, _model(kind, args)) for kind in kinds] if "family" in read else []
    if "hermiticity" in names and any(m.eps == 0.0 for _, m in built):
        raise ArgumentError("hermiticity suite needs eps != 0 (identities are trivial)")
    checks = []
    for name in names:
        suite, reads = _SUITES[name]
        if "family" in reads:
            checks += [c for kind, m in built for c in suite(kind, m, tol)]
        else:
            checks += suite(args, tol)
    parameters = {
        "suite": args.suite,
        **{flag: getattr(args, flag) for flag in flags},
        "tolerances": tol.compared(reader),
    }
    code = _finish(args, "verify", parameters, checks)
    for c in checks:
        print(f"{c['status'].upper()} {c['name']}: "
              f"measured={c['measured']:.6e} tolerance={c['tolerance']:.6e}")
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """Parse type of every float flag: a NaN or infinite value there gives
    only NaN tables, a check that passes or fails whatever it measures, a
    shift inverse iteration refuses only once the operator is built, or a
    manifest that is not valid JSON."""
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
    p.add_argument(
        "--a", type=_finite_float, required=family_required, help="first index"
    )
    p.add_argument("--b", type=_finite_float, default=None, help="second index (scarf)")
    p.add_argument(
        "--k", type=_finite_float, required=family_required, help="scale parameter"
    )
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
            type=_finite_float,
            default=None,
            metavar="X",
            help=f"override tolerance {name} (default {_TOLERANCES[name]:g})",
        )


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
    p_table.set_defaults(func=cmd_table)

    p_spec = sub.add_parser("spectrum", help="formula vs grid eigenvalues as CSV")
    _add_model_flags(p_spec)
    p_spec.add_argument("--nmax", type=int, default=4)
    p_spec.add_argument("--lo", type=_finite_float, default=None)
    p_spec.add_argument("--hi", type=_finite_float, default=None)
    p_spec.add_argument(
        "--grid-points", type=int, default=None, help="interior grid points"
    )
    p_spec.add_argument("--iters", type=int, default=None)
    p_spec.add_argument(
        "--sigma-imag",
        type=_finite_float,
        default=None,
        help="imaginary offset of the inverse-iteration shift",
    )
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--manifest", default=None)
    _add_tol_flags(p_spec, ("spectrum-rel", "im-ratio", "eigen-residual"))
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", choices=[*_SUITES, "all"], required=True)
    _add_model_flags(p_ver, family_required=False, eps_default=None)
    p_ver.add_argument("--nmax", type=int, default=None)
    p_ver.add_argument("--manifest", default=None)
    _add_tol_flags(p_ver, _TOLERANCES)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "nmax", None) is not None and args.nmax < 1:
            raise ArgumentError(f"--nmax must be >= 1, got {args.nmax}")
        # a run reports each non-finite value as an `error:` line or a
        # failing check; numpy's unprefixed warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ArgumentError, DomainError) as exc:
        _err(str(exc))
        return 2
    except (
        ConsistencyError,
        ConstructionError,
        ConvergenceError,
        EvaluationError,
    ) as exc:
        _err(str(exc))
        return 1


def entry() -> None:
    raise SystemExit(main())
