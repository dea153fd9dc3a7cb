"""Command-line surface: evaluation, summaries, sampling, figure-data
generation, catalog queries and self-verification.

Exit codes: 0 success, 1 validation problem, 2 numeric failure, 3 I/O error
(a sample CSV whose least size exceeds the free disk space included, refused
before its file is opened) or out of memory.
All output is deterministic for fixed flags (including seeds), except the
`seconds=` field that `check` prints; numbers are printed with 17
significant digits so files round-trip to the exact doubles.

The distribution is selected either by the five raw flags

    --p --b --c --q --x0

(read as Python's float reads numbers, so p may be inf) or by --dist NAME
plus that entry's own flags (see `ifdist catalog list`); the two styles are
mutually exclusive, and --gamma/--m go only with --dist.  A flat key=value
file with keys p, b, c, q, x0 can be supplied via --params; raw flags
override file values.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import shutil
import stat
import sys
import time
import zlib
from dataclasses import replace
from itertools import product

import numpy as np

from . import catalog as cat
from . import modes as modes_mod
from . import moments as moments_mod
from .core import _PARAM_NAMES, IFDistribution, IFParams, classify
from .errors import DomainError, NumericFailure
from .kernels import UniformStream, integrate, maximize_scalar

__all__ = ["main"]

_ENTRY_KEYS = _PARAM_NAMES + ("gamma", "m")

# 17 significant digits: every printed double reads back to itself
_DIGITS = ".17g"
# rows per chunk of the CSV writer: bounded memory on 1e6-row samples, and
# the per-chunk cost no longer dominates (10**6 draws took 0.55 s at 1024
# rows against 0.35 s at 8192, medians of 7 on a 2-core Xeon VM)
_CHUNK_ROWS = 8192
# bytes of a CSV cell's slot (see `_g17_cells`)
_SLOT = 45
# decimal exponents k of the writer's tables (normal doubles have k in
# [-308, 308])
_K_LO, _K_HI = -310, 310

# the density-sweep base point: every parameter fixed unless varied/overridden
_CURVE_BASE = {"p": 1.0, "b": 1.0, "c": 200.0, "q": 2.0, "x0": 0.0}

_CHECK_GRID = {
    "p": [0.0, 0.5, 1.0, 5.0, 1e3, math.inf],
    "b": [-3.0, -1.0, -0.5, 0.5, 1.0, 2.0],
    "q": [0.5, 1.0, 2.0, 5.0],
    "c": [1.0, 200.0],
    "x0": [0.0, 1.0],
}
_CHECK_LEVELS = np.array([1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5,
                          0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return format(float(v), _DIGITS)


@functools.cache
def _g17_tables():
    """The tables of `_g17_cells`, built on first use, not at import: per
    exponent k, 10**(16 - k) = (hi + lo) * 2**t with hi in [1, 2), to about
    2**-106, with hi's Veltkamp halves, and the slot bytes; the ASCII
    groups 0000..9999 as uint32 words; and the slot masks by (layout of k,
    sign, number of significant digits)."""
    ks = np.arange(_K_LO, _K_HI + 1)
    powers = []
    for s in (16 - ks).tolist():
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        t = num.bit_length() - den.bit_length() - 1
        num, den = num << max(-t, 0), den << max(t, 0)
        if num >= 2 * den:
            t, den = t + 1, 2 * den
        hi = num / den  # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        powers.append((hi, (num * hd - hn * den) / (den * hd), t))
    hi, lo, t = map(np.array, zip(*powers))
    t = t.astype(np.int32)  # as frexp's exponents: ldexp has int32 loops everywhere
    c = 134217729.0 * hi
    hi_h = c - (c - hi)
    dig4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    slots = np.frombuffer(b"".join(
        b"-0.000" + b"0." * 16 + f"0e{k:+04d},".encode() for k in ks),
        np.uint8).reshape(len(ks), _SLOT)
    # Python's `g` at 17 digits: fixed for -4 <= k < 17 (layouts 0..20),
    # else d.ddde+XX with 2 or 3 exponent digits (21, 22); trailing zeros
    # and a bare "." dropped.  A byte shows where its rank is below the
    # number of significant digits; digit j has rank j.
    layout = np.where((-4 <= ks) & (ks < 17), ks + 4, 21 + (abs(ks) >= 100))
    rank = np.full((23, 2, _SLOT), 127)  # 127: never shown
    for lay, r in enumerate(rank):
        k = lay - 4
        r[:, 6:39:2] = range(17)
        r[:, -1] = -1  # the separator
        r[1, 0] = -1  # "-"
        if lay > 20:
            r[:, 7] = 1
            r[:, 39:41] = -1
            r[:, 41 + (lay == 21):44] = -1
        elif k >= 0:
            r[:, 6:7 + 2 * k:2] = -1
            r[:, 7 + 2 * k:8 + 2 * k] = k + 1  # the "." after digit k, if any
        else:
            r[:, 1:2 - k] = -1  # "0." and -k - 1 zeros
    masks = rank[:, :, None, :] < np.arange(1, 18)[:, None]
    return hi, lo, hi_h, hi - hi_h, t, dig4, slots, layout, masks.reshape(-1, _SLOT)


def _scaled(m, e, k):
    """(P, E) with P + E = m * 2**e * 10**(16 - k) to about 2**-104
    relative: Dekker's two-product of m and the table's hi, plus m * lo."""
    hi, lo, hi_h, hi_l, t, *_ = _g17_tables()
    i = k - _K_LO
    c = 134217729.0 * m
    m_h = c - (c - m)
    m_l = m - m_h
    p = m * hi[i]
    err = ((m_h * hi_h[i] - p) + m_h * hi_l[i] + m_l * hi_h[i]) + m_l * hi_l[i]
    shift = e + t[i]
    return np.ldexp(p, shift), np.ldexp(err + m * lo[i], shift)


def _g17_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots of `_SLOT` bytes and the mask of their kept bytes, which are
    format(x[i], ".17g") and a ",".  A slot holds every byte any layout
    needs: "-0.000", the 17 digits with a "." after each, "e+308,".

    A normal x prints the 17 digits of N = round(|x| * 10**(16 - k)) in
    [1e16, 1e17).  P + E carries |x| * 10**(16 - k) to far below 1e-6; k
    moves until P + E, rounded, lies in [1e16, 1e17].  P > 2**53 is then
    an integer, so N = P + rint(E), and N strictly inside (1e16, 1e17)
    proves k right.  Cells with E within 1e-6 of a half-integer, cells
    whose N is not inside, zeros, subnormals, inf and NaN take `format`."""
    *_, dig4, slots, layout, masks = _g17_tables()
    ax = np.abs(x)
    fast = (ax >= sys.float_info.min) & (ax <= sys.float_info.max)
    ax = np.where(fast, ax, 1.0)
    m, e = np.frexp(ax)
    k = np.floor(np.log10(ax)).astype(np.intp)  # a guess, off by at most one
    P, E = _scaled(m, e, k)
    for _ in range(2):  # cells still off after this take `format`
        Q = P + E
        bad = np.flatnonzero((Q < 1e16) | (Q > 1e17))
        k[bad] += np.where(Q[bad] < 1e16, -1, 1)
        P[bad], E[bad] = _scaled(m[bad], e[bad], k[bad])
    n = P.astype(np.int64) + np.rint(E).astype(np.int64)
    fast &= (np.abs(E - np.floor(E) - 0.5) > 1e-6) & (n > 10**16) & (n < 10**17)
    high = (n // 10**8).astype(np.uint32)  # the first 9 digits
    low = (n % 10**8).astype(np.uint32)
    cells = slots.take(k - _K_LO, axis=0)
    cells[:, 6] = high // 10**8 + ord("0")
    cells[:, 8:39:2] = dig4.take(np.stack(
        [high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4],
        axis=1)).view(np.uint8)
    digits = 17 - np.argmax(cells[:, 38:5:-2] != ord("0"), axis=1)
    keep = masks.take((2 * layout.take(k - _K_LO) + (x < 0)) * 17 + digits - 1,
                      axis=0)
    for i in np.flatnonzero(~fast):
        text = format(float(x[i]), _DIGITS).encode()
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
        keep[i, :-1] = np.arange(_SLOT - 1) < len(text)
    return cells, keep


def _write_csv(fh, header: list[str], columns: list[np.ndarray]) -> None:
    """The one CSV writer: the header row, then row i of the equal-length
    float columns, each number the bytes of format(x, ".17g")."""
    fh.write(",".join(header) + "\n")
    _write_rows(fh, columns)


def _write_rows(fh, columns: list[np.ndarray]) -> None:
    """`_write_csv`'s rows.  Whole columns are formatted a bounded chunk of
    rows at a time, so memory stays flat however long the columns are, and
    the columns split row-wise over several calls give the same bytes."""
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([col[lo:lo + _CHUNK_ROWS] for col in columns])
        cells, keep = _g17_cells(block.ravel())
        cells.reshape(*block.shape, _SLOT)[:, -1, -1] = ord("\n")
        fh.write(np.compress(keep.ravel(), cells).tobytes().decode("ascii"))


def _check_room(path: str, need: int) -> None:
    """Raise OSError(ENOSPC) where need bytes cannot fit in the file at
    path: the free space of its file system, plus the size of the regular
    file it replaces.  A device or a pipe (such as /dev/null) takes any
    size; a path `open` refuses is left for `open` to report."""
    try:
        st = os.stat(path)
    except OSError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        return
    try:
        room = shutil.disk_usage(os.path.dirname(os.path.realpath(path))).free
    except OSError:
        return
    room += st.st_size if st is not None else 0
    if need > room:
        raise OSError(errno.ENOSPC, f"No space left on device: the CSV needs at "
                      f"least {need} bytes, {room} are free", path)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"cannot parse number list {text!r}")


def _read_params_file(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            if key not in _PARAM_NAMES:
                raise _UsageError(f"{path}:{lineno}: unknown parameter {key!r}")
            try:
                out[key] = float(value)
            except ValueError:
                raise _UsageError(
                    f"{path}:{lineno}: cannot parse {key} value {value!r}")
    return out


def _build_params(ns, base: dict[str, float] | None = None) -> IFParams:
    """The selected point: the named entry at its own flags, or base, then
    the --params file, then the raw flags p, b, c, q, x0.  Each given flag
    is checked against the style in use."""
    if ns.dist is not None and ns.params is not None:
        raise _UsageError("--dist and --params are mutually exclusive")
    allowed = (_PARAM_NAMES if ns.dist is None
               else [name for name, _ in cat.entry(ns.dist).free_parameters])
    given = {}
    for key in _ENTRY_KEYS:
        val = getattr(ns, key)
        if val is None:
            continue
        if key not in allowed:
            if ns.dist is None:
                raise _UsageError(f"--{key} goes only with --dist")
            if key == "p":
                raise _UsageError("--dist and --p are mutually exclusive; "
                                  "named entries pin p themselves")
            raise _UsageError(f"--{key} is not a parameter of {ns.dist}")
        given[key] = val
    if ns.dist is not None:
        return cat.named(ns.dist, **given)
    values = dict(base or {})
    if ns.params is not None:
        values.update(_read_params_file(ns.params))
    values.update(given)
    missing = [k for k in _PARAM_NAMES if k not in values]
    if missing:
        raise _UsageError("missing parameter flags: "
                          + ", ".join(f"--{k}" for k in missing))
    return IFParams(**values)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on `main`'s first call: argparse
    takes far longer to build it than to parse a command line, and
    `parse_args` leaves it as it was (each call fills a fresh namespace)."""
    parser = _Parser(prog="ifdist", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--p", type=float,
                        help='interpolation parameter, "inf" allowed')
    parser.add_argument("--b", type=float, help="shape/skewness, nonzero")
    parser.add_argument("--c", type=float, help="scale, positive")
    parser.add_argument("--q", type=float, help="tail-weight, positive")
    parser.add_argument("--x0", type=float, help="location, nonnegative")
    parser.add_argument("--gamma", type=float,
                        help="gamma parameter of the Pareto III/IV entries")
    parser.add_argument("--m", type=float,
                        help="m parameter of the Stoppa/Generalized Lomax entries")
    parser.add_argument("--dist", help="named catalog entry")
    parser.add_argument("--params", help="key=value parameter file")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_eval = sub.add_parser("eval", help="evaluate a distribution function")
    p_eval.add_argument("--what", required=True,
                        choices=["pdf", "logpdf", "cdf", "sf", "hazard",
                                 "quantile"])
    p_eval.add_argument("--at", required=True,
                        help="comma-separated evaluation points")

    sub.add_parser("summary", help="subfamily, median, mean, variance, mode")

    p_sample = sub.add_parser("sample", help="write inverse-transform draws")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output CSV path")

    p_curve = sub.add_parser("curve", help="density sweep data along one parameter")
    p_curve.add_argument("--vary", required=True, choices=list(_PARAM_NAMES))
    p_curve.add_argument("--values", required=True,
                         help='comma-separated sweep values ("inf" allowed for p)')
    p_curve.add_argument("--x-range", default="0,1000,201",
                         help="LO,HI,N evaluation grid (default 0,1000,201)")

    p_grid = sub.add_parser("modegrid", help="mode matrix over two parameter axes")
    p_grid.add_argument("--axis1", required=True, help="NAME,LO,HI")
    p_grid.add_argument("--axis2", required=True, help="NAME,LO,HI")
    p_grid.add_argument("--steps", default="21,21", help="N1,N2 (default 21,21)")

    p_cat = sub.add_parser("catalog", help="named special cases")
    p_cat.add_argument("action", choices=["list", "show"])
    p_cat.add_argument("name", nargs="?")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", required=True,
                         choices=["normalization", "roundtrip", "moments",
                                  "modes"])
    p_check.add_argument("--tol", type=float, default=None)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_eval(ns) -> int:
    d = IFDistribution(_build_params(ns))
    pts = np.array(_parse_floats(ns.at))
    fn = {"pdf": d.pdf, "logpdf": d.log_pdf, "cdf": d.cdf, "sf": d.survival,
          "hazard": d.hazard, "quantile": d.quantile}[ns.what]
    _write_csv(sys.stdout, ["x", "value"], [pts, fn(pts)])
    return 0


def _cmd_summary(ns) -> int:
    params = _build_params(ns)
    d = IFDistribution(params)
    print(f"subfamily={classify(params).value}")
    print(f"median={_fmt(d.median())}")
    for label, res in (("mean", moments_mod.mean(params)),
                       ("variance", moments_mod.variance(params))):
        if res.exists:
            print(f"{label}={_fmt(res.value)} provenance={res.provenance}")
        else:
            print(f"{label}=non-existent constraint={res.constraint}")
    mres = modes_mod.mode(params)
    density = (f" density={_fmt(mres.density)}"
               if mres.kind is modes_mod.ModeKind.INTERIOR else "")
    print(f"mode={mres.kind.value} x={_fmt(mres.x)}{density}")
    return 0


def _cmd_sample(ns) -> int:
    """Draws go to the file one block at a time: the command holds one
    block of draws and one chunk of CSV text for any n."""
    blocks = IFDistribution(_build_params(ns))._draw_blocks(ns.n, ns.seed)
    header = "value\n"
    _check_room(ns.out, len(header) + 2 * ns.n)  # at least "d\n" per draw
    with open(ns.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for xs in blocks:
            _write_rows(fh, [xs])
    return 0


def _cmd_curve(ns) -> int:
    base = _build_params(ns, _CURVE_BASE)
    rng = _parse_floats(ns.x_range)
    if (len(rng) != 3 or not rng[2].is_integer() or rng[2] < 2
            or not -math.inf < rng[0] < rng[1] < math.inf):
        raise _UsageError("--x-range expects LO,HI,N with finite LO < HI and N >= 2")
    if ns.vary != "x0" and rng[0] < base.x0:
        raise _UsageError(f"--x-range must start at or above x0 = {base.x0}")
    values = _parse_floats(ns.values)
    if not values:
        raise _UsageError("--values must name at least one sweep value")
    # as in `mode_grid`: refused before any array is built
    if rng[2] * len(values) > modes_mod.MAX_GRID_CELLS:
        raise _UsageError(f"curve allows at most {modes_mod.MAX_GRID_CELLS} "
                          "cells (N x number of values)")
    xs = np.linspace(rng[0], rng[1], int(rng[2]))
    columns = [IFDistribution(replace(base, **{ns.vary: v})).pdf(xs)
               for v in values]
    _write_csv(sys.stdout, ["x"] + [f"{ns.vary}={_fmt(v)}" for v in values],
               [xs] + columns)
    return 0


def _cmd_modegrid(ns) -> int:
    params = _build_params(ns)

    def parse_axis(text):
        name, *bounds = text.split(",")
        try:
            lo, hi = map(float, bounds)
        except ValueError:
            raise _UsageError("--axis expects NAME,LO,HI")
        return name.strip(), lo, hi

    axis1 = parse_axis(ns.axis1)
    axis2 = parse_axis(ns.axis2)
    steps = _parse_floats(ns.steps)
    if len(steps) != 2:
        raise _UsageError("--steps expects N1,N2 with integers")
    grid = modes_mod.mode_grid(params, axis1, axis2, steps)
    v1 = np.linspace(axis1[1], axis1[2], grid.shape[0])
    v2 = np.linspace(axis2[1], axis2[2], grid.shape[1])
    _write_csv(sys.stdout, [f"{axis1[0]}\\{axis2[0]}"] + [_fmt(v) for v in v2],
               [v1, *grid.T])
    return 0


def _cmd_catalog(ns) -> int:
    if ns.action == "list":
        records = cat.records()
        cols = list(records[0])
        print(",".join(cols))
        for rec in records:
            print(",".join('"' + str(rec[c]) + '"' if "," in str(rec[c])
                           else str(rec[c]) for c in cols))
        return 0
    if ns.name is None:
        raise _UsageError("catalog show requires a name")
    rec = cat.entry(ns.name).record()
    shown = ["name", "parameters", "constraints", "if_map", "tree_parent"]
    if rec["mean"]:
        shown += ["mean", "mean_constraint"]
    for key in shown:
        print(f"{key}={rec[key]}")
    return 0


def _worse(dev: float, worst: float) -> bool:
    """Whether dev replaces worst as a check suite's worst deviation: NaN
    is worse than any number, and a NaN worst stays."""
    return not (dev <= worst or math.isnan(worst))


def _check_params_iter():
    for values in product(*_CHECK_GRID.values()):
        yield IFParams(**dict(zip(_CHECK_GRID, values)))


def _check_normalization(tol: float):
    for pa in _check_params_iter():
        d = IFDistribution(pa)
        r = integrate(d.pdf_offset, 0.0, math.inf, min(1e-8, tol / 10.0))
        dev = abs(r.value - 1.0)
        if not r.converged:
            dev = max(dev, r.abs_error_estimate)
        yield dev, repr(pa)


def _check_roundtrip(tol: float):
    for pa in _check_params_iter():
        d = IFDistribution(pa)
        got = d.cdf_offset(d.quantile_offset(_CHECK_LEVELS))
        yield float(np.max(np.abs(got - _CHECK_LEVELS))), repr(pa)


# (lo, width) of each argument's uniform draw in the Table-1 check; b draws
# from its own range on the rows whose constraint reads "b < 0"
_TABLE1_DRAWS = {"gamma": (0.15, 0.6), "b": (1.5, 2.5), "b < 0": (-4.0, 2.0),
                 "m": (1.5, 2.5), "q": (1.7, 2.5), "c": (0.5, 3.0),
                 "x0": (0.0, 1.5), "p": (0.5, 3.0)}


def _table1_check_args(name: str) -> list[dict[str, float]]:
    # deterministic in-constraint draws per tabled row (crc32, not hash():
    # string hashing is randomized per process)
    e = cat.CATALOG[name]
    u = UniformStream(zlib.crc32(name.encode()))
    out = []
    for _ in range(3):
        args = {}
        for pname, constraint in e.free_parameters:
            lo, width = _TABLE1_DRAWS["b < 0" if constraint == "b < 0" else pname]
            args[pname] = lo + width * next(u)
        out.append(args)
    return out


def _check_moments(tol: float):
    rows = [n for n in cat.catalog_names() if cat.CATALOG[n].in_mean_table]
    for name in rows:
        row_worst = 0.0
        for args in _table1_check_args(name):
            closed = cat.table1_mean(name, **args)
            pa = cat.named(name, **args)
            if not closed.exists:
                continue
            num = moments_mod._numeric_moment(pa, 1)
            if num is None:
                raise NumericFailure(f"moment quadrature did not converge for {pa} r=1")
            dev = abs(closed.value - num.value) / (1.0 + abs(closed.value))
            row_worst = dev if _worse(dev, row_worst) else row_worst
            yield dev, f"{name} {args!r}"
        print(f"row={name} worst={row_worst:.3e}")


def _check_modes(tol: float):
    for pa in _check_params_iter():
        res = modes_mod.mode(pa)
        if res.kind is not modes_mod.ModeKind.INTERIOR:
            continue
        d = IFDistribution(pa)
        lo = pa.x0 + 1e-9 * pa.c
        hi = pa.x0 + 50.0 * pa.c
        argmax, _ = maximize_scalar(d.log_pdf, lo, hi, tol=1e-11 * pa.c)
        yield abs(res.x - argmax) / pa.c, repr(pa)


_SUITES = {
    "normalization": (_check_normalization, 1e-6),
    "roundtrip": (_check_roundtrip, 1e-9),
    "moments": (_check_moments, 1e-6),
    "modes": (_check_modes, 1e-6),
}


def _cmd_check(ns) -> int:
    fn, default_tol = _SUITES[ns.suite]
    tol = ns.tol if ns.tol is not None else default_tol
    if not tol > 0:  # NaN too
        raise _UsageError("--tol must be positive")
    t0 = time.time()
    worst, where = 0.0, ""
    for dev, point in fn(tol):
        if _worse(dev, worst):
            worst, where = dev, point
    elapsed = time.time() - t0
    status = "pass" if worst <= tol else "fail"
    print(f"suite={ns.suite} worst={worst:.3e} tol={tol:g} "
          f"seconds={elapsed:.1f} result={status}")
    if status == "fail":
        print(f"offending={where}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "summary": _cmd_summary,
    "sample": _cmd_sample,
    "curve": _cmd_curve,
    "modegrid": _cmd_modegrid,
    "catalog": _cmd_catalog,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[ns.command](ns)
    except (_UsageError, DomainError) as exc:
        print(f"ifdist: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"ifdist: numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ifdist: i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"ifdist: out of memory: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
