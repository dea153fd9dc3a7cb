"""The level map's bits: `median()` and `mode_x_from_t()` over a seeded sweep.

Both place x at a level t of w = G^(-q)/(p+1) through the one map

    x - x0 = c (p+1)^(-1/(bq)) (t^(-1/q) - 1)^(1/b)

(the median at t = 1 - 2^(-1/(p+1)), a stationary point of the density at
a root of the mode equation), both through the one method
`IFDistribution._offset_at`.  The digests below are the sha256 of every
result's float64 bytes.  Like `tests/data/surface_digests.json` they hold
for numpy's dispatched SIMD loops (the root finder's residual and the
far-range fallback of `_offset_at` use numpy), not for its baseline loops.
A change that moves any of these bits on purpose re-records them and says
so:

    PYTHONPATH=src python tests/test_level_map.py
"""

import hashlib
import math

import numpy as np

from ifdist import IFDistribution, IFParams, Subfamily, classify
from ifdist.modes import mode_x_from_t, solve_mode_equation

N_POINTS = 5000
MEDIAN_DIGEST = "2e3b00b8aba6af50df57f0b9dee7e126d240a4c5b08e28b7aceeb9bbe798d657"
MODE_DIGEST = "7b5b3f814b89cbed9b8c242cf7a08c56bed7b7b3f7d0320681f5549a8862cb63"
N_ROOTS = 761


def _points():
    """Seeded draws over every subfamily and both signs of b: p in
    {0, inf, e^U(-7, 30)}, b in {e^U(-3, 3), -e^U(-3, 3), 1},
    c = e^U(-5, 5), q = e^U(-3, 3), x0 = U(0, 2)."""
    rng = np.random.default_rng(19)
    out = []
    for _ in range(N_POINTS):
        p = [0.0, math.inf, math.exp(rng.uniform(-7.0, 30.0))][rng.integers(3)]
        size = math.exp(rng.uniform(-3.0, 3.0))
        b = [size, -size, 1.0][rng.integers(3)]
        c = math.exp(rng.uniform(-5.0, 5.0))
        q = math.exp(rng.uniform(-3.0, 3.0))
        out.append(IFParams(p, b, c, q, rng.uniform(0.0, 2.0)))
    return out


def _digest(values) -> str:
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


def median_digest() -> str:
    return _digest([IFDistribution(pa).median() for pa in _points()])


def mode_digest() -> tuple[str, int]:
    """The digest of x at every root of the General draws' mode equation,
    and the number of roots."""
    xs = []
    for pa in _points():
        if classify(pa) is not Subfamily.GENERAL:
            continue
        xs += [mode_x_from_t(pa, t) for t in solve_mode_equation(pa)]
    return _digest(xs), len(xs)


def test_median_bits():
    assert median_digest() == MEDIAN_DIGEST


def test_mode_root_bits():
    assert mode_digest() == (MODE_DIGEST, N_ROOTS)


if __name__ == "__main__":
    print(f'MEDIAN_DIGEST = "{median_digest()}"')
    digest, n = mode_digest()
    print(f'MODE_DIGEST = "{digest}"')
    print(f"N_ROOTS = {n}")
