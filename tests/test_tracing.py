"""The benchmark's span recorder installs over the names it rebinds and
puts every original back.

`perfbench/tracing.py` rebinds by name the module attributes and the
`IFDistribution` and `UniformStream` methods that the library calls
through, so a rename in `src` must fail here and not only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

from ifdist import catalog, cli, core, kernels, modes, moments

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
OWNERS = (catalog, cli, core, kernels, modes, moments, core.IFDistribution,
          kernels.UniformStream)


def _span_recorder():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SpanRecorder()


def _bindings():
    """(owner, name) -> the object bound there, for every owner above."""
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_install_rebinds_and_uninstall_restores():
    before = _bindings()
    rec = _span_recorder()
    try:
        rec.install()
        n_patches = len(rec._patches)
        rebound = {key for key, value in _bindings().items()
                   if before.get(key) is not value}
        pa = core.IFParams(0.5, 1.5, 1.0, 2.0, 0.0)
        core.IFDistribution(pa).median()
        moments.mean(pa)
        modes.mode(pa)
    finally:
        rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert len(rebound) == n_patches > 25
    assert {("ifdist.moments", "mean"), ("IFDistribution", "median"),
            ("ifdist.modes", "find_root"), ("ifdist.cli", "integrate"),
            ("UniformStream", "draws")} <= rebound
    for name in ("core.median", "moments.mean", "modes.mode"):
        assert rec.stats[name].calls >= 1, name
