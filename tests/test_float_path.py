"""A float passed to the distribution surface gives the array path's bits.

`pdf`, `log_pdf`, `cdf`, `survival` and their offset forms keep a Python
float (or `np.float64`) a float through the log terms, with numpy's ufuncs
for the transcendental functions.  Each result must equal, byte for byte,
the same function's element of one call over a float array, or raise the
same `DomainError` message as that element alone, and it must be a Python
`float`, also for `np.float64` and 0-d input.

The parameter draws cover every subfamily and both signs of b; the
offsets leave the normal doubles on both sides and include the edges.
The identity must hold on whichever SIMD loops numpy dispatches to, so CI
runs this file a second time with every dispatched target switched off:

    NPY_DISABLE_CPU_FEATURES="$(python -c 'import numpy as np; print(" ".join(np.__config__.CONFIG["SIMD Extensions"].get("found", [])))')" \\
        PYTHONPATH=src python -m pytest -q tests/test_float_path.py
"""

import math

import numpy as np
import pytest

from ifdist import DomainError, IFDistribution, IFParams

FUNCTIONS = ["pdf", "pdf_offset", "log_pdf", "log_pdf_offset", "cdf",
             "cdf_offset", "survival", "sf_offset"]
EDGE_OFFSETS = [5e-324, 1.7e308, 0.0, -0.0, -1.0, math.inf, math.nan]
N_POINTS = 120
N_OFFSETS = 16


def _points():
    """Seeded (params, offsets) draws: p in {0, inf, e^U(-7, 30)}, b in
    {e^U(-3, 3), -e^U(-3, 3), 1}, c = e^U(-5, 5), q = e^U(-3, 3),
    x0 = U(0, 2); offsets c e^U(-300, 300), c e^U(-3, 3) (the bulk, where
    ln y is near 0) and the edges."""
    rng = np.random.default_rng(18)
    out = []
    for _ in range(N_POINTS):
        p = [0.0, math.inf, math.exp(rng.uniform(-7.0, 30.0))][rng.integers(3)]
        size = math.exp(rng.uniform(-3.0, 3.0))
        b = [size, -size, 1.0][rng.integers(3)]
        c = math.exp(rng.uniform(-5.0, 5.0))
        q = math.exp(rng.uniform(-3.0, 3.0))
        x0 = rng.uniform(0.0, 2.0)
        ln_y = np.append(rng.uniform(-300.0, 300.0, N_OFFSETS),
                         rng.uniform(-3.0, 3.0, N_OFFSETS))
        out.append((IFParams(p, b, c, q, x0),
                    np.append(c * np.exp(ln_y), EDGE_OFFSETS)))
    return out


POINTS = _points()


def _outcome(fn, arg):
    """The float64 bytes of fn(arg), or its DomainError message; for a
    float or 0-d arg the result must be a Python float."""
    try:
        out = fn(arg)
    except DomainError as exc:
        return f"DomainError: {exc}"
    assert np.ndim(arg) > 0 or type(out) is float, (type(arg), type(out))
    return np.asarray(out, dtype=np.float64).tobytes()


def _array_outcomes(fn, xs):
    """Each element's outcome on the array path: its bytes from one call
    over every element that the function accepts, or the DomainError
    message that the element raises alone."""
    try:
        return [v.tobytes() for v in fn(xs)]
    except DomainError:  # one rejected element rejects the whole array
        alone = [_outcome(fn, xs[i:i + 1]) for i in range(xs.size)]
    ok = np.array([isinstance(a, bytes) for a in alone])
    values = iter(fn(xs[ok]))
    return [next(values).tobytes() if good else a
            for good, a in zip(ok, alone)]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_float_input_gives_the_array_bits(name):
    checked = 0
    for pa, deltas in POINTS:
        fn = getattr(IFDistribution(pa), name)
        xs = deltas if name.endswith("_offset") else pa.x0 + deltas
        want = _array_outcomes(fn, xs)
        for v, expected in zip(xs.tolist(), want):
            for arg in (v, np.float64(v), np.array(v)):
                got = _outcome(fn, arg)
                assert got == expected, (name, pa, v, type(arg), got, expected)
                checked += 1
    assert checked == 3 * N_POINTS * (2 * N_OFFSETS + len(EDGE_OFFSETS))
