"""Span recorder for the traced benchmark run.

Tracing is installed from the benchmark's side: the public names that each
ifdist module looks up at call time (module attributes, the IFDistribution
methods, the UniformStream.draws method and the names cli imported) are
rebound to wrappers that record one span per call.  The library itself is
not edited.  Spans live in memory as compact arrays and are written out once
at the end of the run; self time (a span's duration minus the time its child
spans cover) is accumulated while the spans close.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# elements at or below this count make a "scalar" core call: the quadrature
# integrands (15 nodes) and the scalar calls made by the mode and moment code
SCALAR_MAX_ELEMENTS = 15

# core surface methods grouped into the kinds reported per element
_CORE_KINDS = {
    "pdf": "pdf", "pdf_offset": "pdf", "log_pdf": "pdf", "log_pdf_offset": "pdf",
    "cdf": "cdf", "cdf_offset": "cdf",
    "survival": "sf", "sf": "sf", "sf_offset": "sf",
    "hazard": "hazard",
    "quantile": "quantile", "quantile_offset": "quantile",
    "sample": "sample",
    "median": "median",
}


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0


class SpanRecorder:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = -1
        self._stack: list[list] = []  # [span index, child time]
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self, name: str, failed: bool) -> float:
        t = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        if failed:
            st.failed += 1
        return dur

    def in_span(self, prefix: str) -> bool:
        """True when an open span belongs to the layer named by prefix."""
        return any(self.names[self.name_id[i]].startswith(prefix)
                   for i, _ in self._stack)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result, seconds, outer)
        runs outside the span to update counters."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not rec.in_span(name.split(".")[0] + ".")
            rec._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec._close(name, True)
                raise
            dur = rec._close(name, False)
            if after is not None:
                after(args, kwargs, out, dur, outer)
            return out

        return traced

    # -- installing --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Rebind the names each ifdist module calls through.  The benchmark
        itself calls through the module attributes too (kernels.integrate,
        moments.mean, modes.mode, cli.main), so its calls are traced alike."""
        from ifdist import catalog, cli, core, kernels, modes, moments

        def integrate_after(args, kwargs, res, dur, outer):
            self.count("kernels.integrate.evaluations", res.evaluations)
            if not res.converged:
                self.count("kernels.integrate.unconverged")

        for owner in (kernels, moments, cli):
            self.patch(owner, "integrate", "kernels.integrate", integrate_after)

        def counted_find_root(fn):
            @functools.wraps(fn)
            def find_root(f, *args, **kwargs):
                def counted(x):
                    self.count("kernels.find_root.f_evals")
                    return f(x)
                return fn(counted, *args, **kwargs)
            return find_root

        root = counted_find_root(kernels.find_root)
        for owner in (kernels, modes):
            self._patches.append((owner, "find_root", getattr(owner, "find_root")))
            setattr(owner, "find_root", self.wrap("kernels.find_root", root))
        for owner in (kernels, cli):
            self.patch(owner, "maximize_scalar", "kernels.maximize_scalar")
        for owner in (kernels, moments, catalog):
            self.patch(owner, "ln_gamma", "kernels.special.ln_gamma")
            self.patch(owner, "beta", "kernels.special.beta")

        def draws_after(args, kwargs, out, dur, outer):
            self.count("kernels.uniform_stream.draws", len(out))

        self.patch(kernels.UniformStream, "draws", "kernels.uniform_stream", draws_after)

        def core_after(kind):
            def after(args, kwargs, out, dur, outer):
                if not outer:
                    return
                n = int(np.size(args[1])) if len(args) > 1 else 1
                if kind == "sample":
                    n = int(args[1])
                if n <= SCALAR_MAX_ELEMENTS:
                    self.count("core.scalar.calls")
                    self.count("core.scalar.seconds", dur)
                else:
                    self.count(f"core.{kind}.elements", n)
                    self.count(f"core.{kind}.seconds", dur)
            return after

        cls = core.IFDistribution
        self.patch(cls, "__init__", "core.construct")
        for method, kind in _CORE_KINDS.items():
            self.patch(cls, method, f"core.{method}", core_after(kind))

        def moment_after(args, kwargs, res, dur, outer):
            if outer:
                self.count("moments.results")
                if res.provenance == moments.NUMERIC:
                    self.count("moments.numeric")

        for fn in ("mean", "variance", "raw_moment"):
            self.patch(moments, fn, f"moments.{fn}", moment_after)
        self.patch(moments, "_numeric_moment", "moments.numeric_moment")

        def mode_after(args, kwargs, res, dur, outer):
            if outer:
                self.count("modes.candidates", res.n_candidates)

        self.patch(modes, "mode", "modes.mode", mode_after)
        self.patch(modes, "solve_mode_equation", "modes.solve_mode_equation")
        self.patch(modes, "mode_grid", "modes.mode_grid")
        self.patch(modes, "boundary_behavior", "modes.boundary_behavior")
        for fn in ("named", "entry", "table1_mean", "records", "resolve",
                   "catalog_names"):
            self.patch(catalog, fn, f"catalog.{fn}")
        self.patch(cli, "main", "cli.main")

    # -- reporting ---------------------------------------------------------------

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), pass_id=np.asarray(self.pass_id))

    def layer_metrics(self, passes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, keyed by metric name."""
        st = self.stats
        c = self.counters
        per = 1.0 / max(passes, 1)

        def calls(prefix):
            return sum(s.calls for n, s in st.items() if n.startswith(prefix))

        def self_s(prefix):
            return sum(s.self_s for n, s in st.items() if n.startswith(prefix))

        def failed(prefix):
            # only the outermost span of a layer counts a failure once
            return sum(s.failed for n, s in st.items() if n == prefix)

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        n_int = calls("kernels.integrate")
        out["kernels.integrate.calls"] = (n_int * per, "count")
        out["kernels.integrate.self_s"] = (self_s("kernels.integrate") * per, "s")
        out["kernels.integrate.evaluations"] = (
            c.get("kernels.integrate.evaluations", 0) * per, "count")
        out["kernels.integrate.unconverged_ratio"] = (
            ratio(c.get("kernels.integrate.unconverged", 0), n_int), "ratio")
        out["kernels.find_root.calls"] = (calls("kernels.find_root") * per, "count")
        out["kernels.find_root.self_s"] = (self_s("kernels.find_root") * per, "s")
        out["kernels.find_root.f_evals"] = (
            c.get("kernels.find_root.f_evals", 0) * per, "count")
        out["kernels.maximize_scalar.self_s"] = (
            self_s("kernels.maximize_scalar") * per, "s")
        out["kernels.uniform_stream.draws"] = (
            c.get("kernels.uniform_stream.draws", 0) * per, "count")
        out["kernels.uniform_stream.self_s"] = (
            self_s("kernels.uniform_stream") * per, "s")
        out["kernels.special.calls"] = (calls("kernels.special") * per, "count")
        out["kernels.special.self_s"] = (self_s("kernels.special") * per, "s")
        out["kernels.self_s"] = (self_s("kernels.") * per, "s")
        construct = st.get("core.construct")
        out["core.construct.us"] = (
            ratio(construct.total_s, construct.calls) * 1e6 if construct else 0.0, "us")
        out["core.scalar.us_per_call"] = (
            ratio(c.get("core.scalar.seconds", 0.0), c.get("core.scalar.calls", 0)) * 1e6,
            "us")
        for kind in ("pdf", "cdf", "sf", "hazard", "quantile", "sample"):
            out[f"core.{kind}.ns_per_element"] = (
                ratio(c.get(f"core.{kind}.seconds", 0.0),
                      c.get(f"core.{kind}.elements", 0)) * 1e9, "ns")
        out["core.self_s"] = (self_s("core.") * per, "s")
        out["moments.self_s"] = (self_s("moments.") * per, "s")
        out["moments.numeric_ratio"] = (
            ratio(c.get("moments.numeric", 0), c.get("moments.results", 0)), "ratio")
        out["moments.failed"] = (
            sum(failed(f"moments.{fn}") for fn in ("mean", "variance", "raw_moment"))
            * per, "count")
        out["modes.self_s"] = (self_s("modes.") * per, "s")
        out["modes.solve_mode_equation.self_s"] = (
            self_s("modes.solve_mode_equation") * per, "s")
        out["modes.candidates"] = (c.get("modes.candidates", 0) * per, "count")
        out["modes.failed"] = (failed("modes.mode") * per, "count")
        out["catalog.self_s"] = (self_s("catalog.") * per, "s")
        cli_self = self_s("cli.")
        bytes_out = c.get("cli.bytes_out", 0)
        out["cli.self_s"] = (cli_self * per, "s")
        out["cli.bytes_out"] = (bytes_out * per, "B")
        out["cli.bytes_per_s"] = (ratio(bytes_out, cli_self), "B/s")
        out["trace.spans"] = (len(self.start) * per, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
