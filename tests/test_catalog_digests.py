"""The catalog's output bits, pinned per entry.

Each digest is the sha256 of what `named()` and `table1_mean()` give (the
five family parameters and the mean as float64 bytes, the mean's provenance
or violated condition, or the raised error's type and message) over a fixed
draw of finite arguments: log-uniform magnitudes of either sign and small
exact values on the constraint boundaries, so that in-constraint,
mean-violating and constraint-violating arguments all occur, and Weibull
means whose Gamma leaves the doubles.  A change that moves any of these
bits on purpose re-records the file and says so:

    PYTHONPATH=src python tests/test_catalog_digests.py --record
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from ifdist import DomainError, UniformStream
from ifdist.catalog import CATALOG, named, table1_mean

DATA = Path(__file__).parent / "data" / "catalog_digests.json"
DRAWS = 400
EXACT = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.0]


def _arguments(name: str):
    """DRAWS argument dicts of one entry, from a stream seeded by its name."""
    e = CATALOG[name]
    u = UniformStream(int.from_bytes(name.encode(), "little") % 2 ** 63)
    for _ in range(DRAWS):
        args = {}
        for pname, text in e.free_parameters:
            kind, sign, mag = u.draws(3)
            if kind < 0.2:
                args[pname] = EXACT[int(mag * len(EXACT))]
                continue
            # most draws take the sign the constraint asks for
            negative = ("< 0" in text) != (sign < 0.1)
            args[pname] = (-1.0 if negative else 1.0) * 10.0 ** (6.0 * mag - 3.0)
        yield args


def _feed(h, fn, name, args):
    try:
        out = fn(name, **args)
    except (DomainError, ArithmeticError) as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return
    if hasattr(out, "exists"):
        h.update(f"{out.provenance} {out.constraint} {out.abs_error!r}".encode())
        out = [] if out.value is None else [out.value]
    else:
        out = [out.p, out.b, out.c, out.q, out.x0]
    h.update(struct.pack(f"<{len(out)}d", *out))


def _digest(name: str) -> str:
    h = hashlib.sha256()
    for args in _arguments(name):
        _feed(h, named, name, args)
        _feed(h, table1_mean, name, args)
    return h.hexdigest()


PINNED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_catalog_bits_unchanged(name):
    assert _digest(name) == PINNED[name]


def test_every_entry_pinned():
    assert set(PINNED) == set(CATALOG)


if __name__ == "__main__" and "--record" in sys.argv:
    DATA.write_text(json.dumps({n: _digest(n) for n in sorted(CATALOG)},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
