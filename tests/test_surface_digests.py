"""The surface functions' output bits, pinned per function and stratum.

Each digest is the sha256 of every output (float64 bytes, or the raised
error's type and message) of one surface function over a fixed grid of
one subfamily stratum: offsets c * 10^k for k in -300..300, which keep
(x - x0)/c a normal double, plus x0 itself, points below the support, NaN
and inf.  A change that moves any of these bits on purpose re-records the
file and says so:

    PYTHONPATH=src python tests/test_surface_digests.py --record
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ifdist import DomainError, IFDistribution, IFParams

DATA = Path(__file__).parent / "data" / "surface_digests.json"
INF = math.inf

STRATA = {
    "IF1+": [(0.0, 1.5, 1.0, 2.0, 0.0), (0.0, 0.3, 200.0, 0.7, 5.0),
             (0.0, 7.0, 1e-3, 4.0, 1e3)],
    "IF1-": [(0.0, -1.5, 1.0, 2.0, 0.0), (0.0, -0.3, 200.0, 0.7, 5.0),
             (0.0, -7.0, 1e-3, 4.0, 1e3)],
    "IF2+": [(INF, 1.5, 1.0, 2.0, 0.0), (INF, 0.3, 200.0, 0.7, 5.0),
             (INF, 7.0, 1e-3, 4.0, 1e3)],
    "IF2-": [(INF, -1.5, 1.0, 2.0, 0.0), (INF, -1.0, 2.0, 1.0, 5.0),
             (INF, -7.0, 1e-3, 4.0, 1e3)],
    "IF3": [(0.5, 1.0, 1.0, 2.0, 0.0), (1e3, 1.0, 200.0, 0.7, 5.0),
            (1e-3, 1.0, 1e-3, 4.0, 1e3)],
    "General+": [(0.5, 1.5, 1.0, 2.0, 0.0), (3.0, 2.0, 1.0, 1.3, 0.0),
                 (1e6, 0.3, 200.0, 0.7, 5.0), (1e12, 7.0, 1e-3, 4.0, 1e3)],
    "General-": [(0.5, -1.5, 1.0, 2.0, 0.0), (24.3, -8.28, 1.0, 0.548, 0.0),
                 (1e6, -0.3, 200.0, 0.7, 5.0), (1e12, -7.0, 1e-3, 4.0, 1e3)],
}

FUNCTIONS = ["pdf", "pdf_offset", "log_pdf", "log_pdf_offset", "cdf",
             "cdf_offset", "survival", "sf_offset", "hazard", "quantile",
             "quantile_offset"]

LEVELS = [0.0, 1e-300, 1e-17, 1e-9, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9,
          1.0 - 1e-9, 1.0 - 2.0 ** -53, 1.0]
BAD_LEVELS = [math.nan, -0.1, 1.1]


def _inputs(pa: IFParams, fn: str):
    """(array input, extra scalar inputs) of one function at one point."""
    if fn.startswith("quantile"):
        return np.array(LEVELS), BAD_LEVELS
    deltas = pa.c * 10.0 ** np.arange(-300.0, 301.0, 10.0)
    if fn.endswith("_offset"):
        edge = [0.0, -1.0, -pa.c]
        base = deltas
    else:  # where x0 absorbs the offset, x = x0 is pinned once, in edge
        edge = [pa.x0, pa.x0 - 1.0, -1.0]
        base = pa.x0 + deltas
        base = base[base > pa.x0]
    y = (base - (0.0 if fn.endswith("_offset") else pa.x0)) / pa.c
    assert ((y >= np.finfo(float).tiny) & (y < INF)).all()
    special = [math.nan, INF]
    if fn in ("log_pdf", "log_pdf_offset", "hazard"):
        # these reject x <= x0 (or delta <= 0) and NaN: pin each message
        return np.append(base, INF), edge + [math.nan]
    return np.concatenate([base, edge, special]), []


def _feed(h, fn, arg):
    try:
        out = fn(arg)
    except DomainError as exc:
        h.update(f"DomainError: {exc}".encode())
        return
    h.update(np.asarray(out, dtype=np.float64).tobytes())


def _digest(name: str, stratum: str) -> str:
    h = hashlib.sha256()
    for pt in STRATA[stratum]:
        pa = IFParams(*pt)
        fn = getattr(IFDistribution(pa), name)
        xs, extra = _inputs(pa, name)
        _feed(h, fn, xs)
        for v in list(xs[::7]) + extra:
            _feed(h, fn, float(v))
    return h.hexdigest()


PINNED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_surface_bits_unchanged(key):
    assert _digest(*key.split()) == PINNED[key]


def test_every_function_and_stratum_pinned():
    assert set(PINNED) == {f"{f} {s}" for f in FUNCTIONS for s in STRATA}


if __name__ == "__main__" and "--record" in sys.argv:
    digests = {f"{f} {s}": _digest(f, s) for f in FUNCTIONS for s in STRATA}
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
