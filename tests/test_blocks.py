"""The block rule of the array surface.

An array method runs on consecutive blocks of `core._BLOCK` elements, so
every call on more than one block must give the bits of the same call made
in pieces, keep each element's edge value and error text, and hold no more
than its output and one block of temporaries.  These tests compare two
blockings on one SIMD loop set, so they hold on any loop set.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ifdist import DomainError, IFDistribution, IFParams, UniformStream
from ifdist.core import _BLOCK

B = _BLOCK
SIZES = (0, 1, B - 1, B, B + 1, 3 * B + 7)

# the seven subfamily points of test_kernels.py's DENSITY_POINTS
POINTS = [
    IFParams(0.0, 2.0, 1.0, 1.5, 0.0), IFParams(0.0, -2.0, 1.0, 1.5, 0.3),
    IFParams(math.inf, 1.5, 2.0, 1.0, 0.0), IFParams(math.inf, -0.7, 1.0, 2.0, 0.0),
    IFParams(2.0, 1.0, 1.0, 3.0, 0.0), IFParams(2.5, 1.7, 1.3, 2.2, 0.1),
    IFParams(0.5, -1.5, 1.0, 2.0, 0.0),
]

X_FORMS = ("pdf", "log_pdf", "cdf", "survival", "hazard")
OFFSET_FORMS = ("pdf_offset", "log_pdf_offset", "cdf_offset", "sf_offset")
LEVEL_FORMS = ("quantile", "quantile_offset")


def _inputs(pa, method, n):
    """n points inside the method's domain: offsets spread over 16 decades
    (x = x0 + offset for the x-forms) or levels strictly inside (0, 1)."""
    if method in LEVEL_FORMS:
        return UniformStream(n).draws(n)
    ds = pa.c * 10.0 ** np.linspace(-8.0, 8.0, n)
    return ds if method in OFFSET_FORMS else pa.x0 + ds


def _in_slices(fn, a):
    """fn on 1000-element slices of a's elements in C order, concatenated
    into a's shape: one block or less per call."""
    flat = np.ascontiguousarray(a).reshape(-1)
    parts = [fn(flat[i:i + 1000]) for i in range(0, flat.size, 1000)]
    return np.concatenate(parts or [np.empty(0)]).reshape(a.shape)


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pa", POINTS)
@pytest.mark.parametrize("method", X_FORMS + OFFSET_FORMS + LEVEL_FORMS)
def test_blocks_give_the_bits_of_slices(pa, method):
    fn = getattr(IFDistribution(pa), method)
    for n in SIZES:
        a = _inputs(pa, method, n)
        _same_bits(fn(a), _in_slices(fn, a))
    a = _inputs(pa, method, 2 * B + 6).reshape(2, B + 3)
    _same_bits(fn(a), _in_slices(fn, a))
    _same_bits(fn(a.T), _in_slices(fn, a.T))  # not C-contiguous
    _same_bits(fn(list(a[0])), _in_slices(fn, a[0]))


@pytest.mark.parametrize("pa", POINTS)
def test_edge_values_in_the_last_block(pa):
    d = IFDistribution(pa)
    x0, n = pa.x0, 3 * B + 7
    edges = np.array([0.0, x0, math.inf, math.nan])
    x = np.concatenate([_inputs(pa, "pdf", n - 4), edges])
    ds = np.concatenate([_inputs(pa, "pdf_offset", n - 4), edges - x0])
    below = 0.0 if x0 > 0 else d.pdf(x0)  # x = 0 lies below x0 or at it
    for got in (d.pdf(x)[-4:], d.pdf_offset(ds)[-4:]):
        np.testing.assert_array_equal(got, [below, d.pdf(x0), 0.0, math.nan])
    for got in (d.cdf(x)[-4:], d.cdf_offset(ds)[-4:]):
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, math.nan])
    for got in (d.survival(x)[-4:], d.sf_offset(ds)[-4:]):
        np.testing.assert_array_equal(got, [1.0, 1.0, 0.0, math.nan])
    u = np.concatenate([_inputs(pa, "quantile", n - 2), [0.0, 1.0]])
    np.testing.assert_array_equal(d.quantile(u)[-2:], [x0, math.inf])
    np.testing.assert_array_equal(d.quantile_offset(u)[-2:], [0.0, math.inf])


@pytest.mark.parametrize("method, bad, message", [
    ("log_pdf", "x0", "log_pdf requires x > x0"),
    ("log_pdf_offset", 0.0, "log_pdf_offset requires delta > 0"),
    ("hazard", "x0", "hazard requires x > x0"),
    ("quantile", math.nan, r"quantile requires y in \[0, 1\]"),
    ("quantile_offset", 1.5, r"quantile requires y in \[0, 1\]"),
])
def test_a_bad_value_in_the_last_block(method, bad, message):
    pa = POINTS[5]
    a = _inputs(pa, method, 3 * B + 7)
    a[-1] = pa.x0 if bad == "x0" else bad
    with pytest.raises(DomainError, match=f"^{message}$"):
        getattr(IFDistribution(pa), method)(a)


@pytest.mark.parametrize("pa", POINTS)
def test_sample_is_the_quantile_of_the_stream(pa):
    d = IFDistribution(pa)
    floor = np.nextafter(pa.x0, math.inf)
    for n in SIZES:
        want = np.maximum(_in_slices(d.quantile, UniformStream(n).draws(n)), floor)
        _same_bits(d.sample(n, n), want)


class TestMemory:
    """tracemalloc sees numpy's buffers: a call on 10^6 points peaks at its
    8 MB output plus at most 4 MB (blocks of temporaries), where whole-array
    temporaries took 34-66 MB."""

    N = 10 ** 6
    LIMIT = 8 * N + 4 * 10 ** 6

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sample(self):
        d = IFDistribution(POINTS[5])
        assert self._peak(d.sample, self.N, 1) <= self.LIMIT

    @pytest.mark.parametrize("method", ["pdf", "cdf", "hazard"])
    def test_surface(self, method):
        d = IFDistribution(POINTS[5])
        x = d.sample(self.N, 1)
        assert self._peak(getattr(d, method), x) <= self.LIMIT

    def test_an_input_that_is_not_contiguous(self):
        # its blocks are copied one at a time, not the whole input at once
        d = IFDistribution(POINTS[5])
        x = d.sample(self.N, 1).reshape(1000, 1000).T
        assert self._peak(d.pdf, x) <= self.LIMIT
