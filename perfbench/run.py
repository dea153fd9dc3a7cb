"""Layered benchmark for ifdist.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client, one process and one thread: each timed call
into ifdist starts only after the previous one returned.  NAME is one of
bulk, analysis, tight_quadrature, cli, or all (each workload in its own
process, one after another).  The inputs come from --seed alone; any seed is
accepted, so a claim made on one set of seeds can be checked on another.

With --trace 0 the run is untraced and the last stdout line is a JSON object
holding the end-to-end metrics.  With --trace 1 the run first makes untraced
passes, then installs the span recorder (perfbench/tracing.py) and makes
traced passes; the last line then holds the per-layer metrics, including the
tracing overhead (traced minus untraced pass time).  Every output is checked
after the timed passes.  A call that raises NumericFailure or returns a result
that misses its accuracy check counts in "failed"; a result that misses it
grossly (workloads.GROSS), or differs from the golden digests or between
passes, also makes "correct" false and the exit code 1.  A full record of
the run (environment, every metric with its base, check findings) goes to perfbench/results/.

The package is imported from src/ of the checkout this file sits in, never
from an installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP, set before numpy is first imported
PINNED_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_ENV)
# One thread, on one CPU: the highest-numbered one allowed, away from CPU 0,
# which takes most housekeeping interrupts.  On a 2-core VM an unpinned loop
# timed between 13 and 22 ms in 2-second windows; pinned to CPU 1 it held 11.0 ms
# within 1%.  Child processes inherit the pin.
PINNED_CPU = max(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
if PINNED_CPU is not None:
    os.sched_setaffinity(0, {PINNED_CPU})

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
GOLDEN = BENCH_DIR / "golden.json"
WORKLOAD_NAMES = ("bulk", "analysis", "tight_quadrature", "cli")
SETUP_REPEATS = 9


def _import_ifdist():
    if not (SRC / "ifdist" / "__init__.py").is_file():
        print(f"perfbench: no ifdist package under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import ifdist
    import ifdist.cli  # noqa: F401
    if Path(ifdist.__file__).resolve().parent != SRC / "ifdist":
        print(f"perfbench: imported ifdist from {ifdist.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return ifdist


def _child(workload, seed, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *extra]


def _monotonic() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """(raw, reference-speed) set-up times of fresh processes that import
    ifdist and ifdist.cli and build the workload's inputs.

    A set-up runs from just before the process is started to the moment its
    inputs are ready, as the child reads the clock.  Timing the exit from the
    parent side would add the process teardown and the parent's wait-polling
    steps (up to 50 ms).  Each set-up is scaled to reference speed by the
    SpeedProbe reference job, timed ten times just before the child starts
    and ten times just after it ends, on the same CPU.
    """
    probe = SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [probe.reference() for _ in range(10)]
        t0 = _monotonic()
        proc = subprocess.run(_child(args.workload, args.seed, "--setup-only"),
                              check=True, timeout=170, stdout=subprocess.PIPE, text=True)
        seconds = float(proc.stdout.splitlines()[-1]) - t0
        after = [probe.reference() for _ in range(10)]
        raw.append(seconds)
        scaled.append(seconds * SpeedProbe.REF_SECONDS / statistics.median(before + after))
    return raw, scaled


def _percentile_with_tail(values, beyond=10):
    """(value, percentile): the highest percentile with at least `beyond`
    samples above it, or (None, None) when there are too few samples."""
    n = len(values)
    if n <= beyond:
        return None, None
    s = sorted(values)
    k = n - beyond - 1
    return s[k], 100.0 * (k + 1) / n


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(seed) -> dict:
    import numpy as np
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = [float(v) for v in fh.read().split()[:3]]
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "pinned_cpu": PINNED_CPU,
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit,
    }


def run_passes(wl, inputs, ctx, seconds, recorder=None):
    """Timed passes for about `seconds`: at least one, and another only when
    it is expected to end within a tenth of `seconds` past the mark.

    A pass's time is the sum of its timed calls, so the benchmark's own
    bookkeeping between calls is not counted.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        calls = []
        if recorder is not None:
            recorder.current_pass = len(passes)
        t_pass = time.perf_counter()
        extra = wl.run_pass(inputs, calls, ctx)
        passes.append((calls, extra))
        now = time.perf_counter()
        if now + (now - t_pass) > t0 + 1.1 * seconds:
            return passes


class SpeedProbe:
    """Samples the machine's speed between timed calls.

    The same process can run a fixed piece of work 30-40% faster or slower
    from one minute to the next on a shared virtual machine, and its speed
    also wanders within a second.  Every `every` seconds, after a timed call
    returns, the probe times a fixed reference job (pure Python plus small
    numpy operations, no ifdist code); after a gap of more than GAP seconds
    (a long call) it times the job BURST times, so long calls have samples
    close by too.  Each call's time is then scaled by REF_SECONDS over the
    median of the NEAREST samples to the call, which states it at the
    reference speed.  The raw times are kept and reported too.  Against
    samples every 0.1 s taken within a second of the call, this cut the
    spread of call_gmean_ms over eight seeds from 13-14% to 10-11% on
    analysis and tight_quadrature (2-core x86-64 virtual machine).
    """

    REF_SECONDS = 1.5e-3   # the reference job on the baseline machine, pinned to CPU 1
    GAP = 0.1
    BURST = 5
    NEAREST = 9

    def __init__(self, every=0.02):
        import numpy as np
        self._np = np
        self._x = np.linspace(0.1, 0.9, 15)
        self.every = every
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def reference(self) -> float:
        """Seconds the reference job takes now."""
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(10000):
            acc += (i % 7) * 0.5
        for _ in range(100):
            np.exp(np.log1p(self._x))
        return time.perf_counter() - t0

    def __call__(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            for _ in range(self.BURST if now > self._next + self.GAP else 1):
                self.times.append(time.perf_counter())
                self.samples.append(self.reference())
            self._next = time.perf_counter() + self.every

    def factor(self, start: float, seconds: float) -> float:
        """REF_SECONDS over the median of the NEAREST reference samples to
        [start, start + seconds]."""
        t = self.times
        i = bisect.bisect_left(t, start) - 1
        j = bisect.bisect_right(t, start + seconds)
        near = list(range(i + 1, j))
        while len(near) < self.NEAREST and (i >= 0 or j < len(t)):
            before = start - t[i] if i >= 0 else math.inf
            after = t[j] - (start + seconds) if j < len(t) else math.inf
            if before <= after:
                near.append(i)
                i -= 1
            else:
                near.append(j)
                j += 1
        return self.REF_SECONDS / statistics.median(self.samples[k] for k in near)

    def scaled(self, call) -> float:
        """A call's time at reference speed."""
        return call.seconds * self.factor(call.start, call.seconds)


def _same_every_pass(passes) -> list[str]:
    """Every pass makes the same calls in the same order; each must give the
    same result (or fail the same way) as in the first pass."""
    problems = []
    for calls, _ in passes[1:]:
        for ref, c in zip(passes[0][0], calls):
            if ref.failed != c.failed or (not c.failed and ref.result != c.result):
                problems.append(f"{c.kind} {c.key!r}: output differs between passes")
    return problems[:20]


def _pass_seconds(passes, seconds_of=lambda c: c.seconds) -> list[float]:
    """Each pass's time: the sum of its calls' times, a call's time taken as
    seconds_of(call)."""
    return [sum(seconds_of(c) for c in calls) for calls, _ in passes]


def _wall_and_gmean(passes, seconds_of):
    """(median pass time, geometric-mean call latency) with each call's time
    taken as seconds_of(call).

    Call latencies are multi-modal (closed form vs quadrature, converged vs
    budget spent), and a median can jump between modes when a few calls change
    class.  The log-mean moves smoothly; each call kind weighs the same.
    """
    by_kind = {}
    for calls, _ in passes:
        for c in calls:
            by_kind.setdefault(c.kind, []).append(math.log(seconds_of(c)))
    gmean = math.exp(statistics.fmean(statistics.fmean(v) for v in by_kind.values()))
    return _median(_pass_seconds(passes, seconds_of)), gmean


def end_to_end(wl, passes, setup, probe) -> tuple[dict, dict]:
    """(contract metrics, detail metrics), each {name: (value, unit)}."""
    raw_setup, setup_times = setup
    all_calls = [c for calls, _ in passes for c in calls]
    by_kind = {}
    for c in all_calls:
        by_kind.setdefault(c.kind, []).append(c.seconds)
    kind_p50 = {k: _median(v) * 1e3 for k, v in by_kind.items()}
    wall, gmean = _wall_and_gmean(passes, probe.scaled)
    raw_wall, raw_gmean = _wall_and_gmean(passes, lambda c: c.seconds)
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "call_gmean_ms": (gmean * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n_calls = len(all_calls)
    tail, pct = _percentile_with_tail([c.seconds for c in all_calls])
    detail = {
        "raw_setup_s": (_median(raw_setup), "s"),
        "raw_wall_s": (raw_wall, "s"),
        "raw_call_gmean_ms": (raw_gmean * 1e3, "ms"),
        "reference_ms": (_median(probe.samples) * 1e3, "ms"),
        "passes": (len(passes), "count"),
        "calls": (n_calls, "count"),
        "calls_per_s": (n_calls / sum(_pass_seconds(passes)), "1/s"),
        "call_p50_ms": (_median([c.seconds for c in all_calls]) * 1e3, "ms"),
    }
    if tail is not None:
        detail["call_tail_ms"] = (tail * 1e3, "ms")
        detail["call_tail_percentile"] = (pct, "%")
    for k, v in kind_p50.items():
        detail[f"{k}.p50_ms"] = (v, "ms")
    if wl.name == "bulk":
        detail["elements_per_s"] = (passes[0][1]["elements"] / raw_wall, "1/s")
    elif wl.name == "analysis":
        detail["mode_p50_ms"] = (kind_p50["mode"], "ms")
        detail["moment_p50_ms"] = (_median(by_kind["mean"] + by_kind["variance"]) * 1e3, "ms")
    elif wl.name == "tight_quadrature":
        detail["integral_p50_ms"] = (kind_p50["integrate"], "ms")
        detail["budget_spent"] = (sum(not c.failed and not c.result.converged
                                      for c in passes[0][0]), "count")
    elif wl.name == "cli":
        per_pass = lambda pred: _median(_pass_seconds(
            passes, lambda c: c.seconds if pred(c.kind) else 0.0))
        detail["cli.sample_s"] = (per_pass(lambda k: k == "sample"), "s")
        detail["cli.modegrid_s"] = (per_pass(lambda k: k == "modegrid"), "s")
        detail["cli.check_s"] = (per_pass(lambda k: k.startswith("check.")), "s")
        small = [c.seconds for c in all_calls
                 if c.kind in ("summary", "eval", "curve", "catalog")]
        detail["cli.small_p50_ms"] = (_median(small) * 1e3, "ms")
    return metrics, detail


def _print_metrics(title, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{title} {name} = {value!r} {unit}")


def run_one(args) -> int:
    _import_ifdist()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.make_inputs(args.seed)
        print(repr(_monotonic()))
        return 0
    env = environment(args.seed)
    # set-up is an end-to-end metric, so the traced run does not measure it
    setup = ([], []) if args.trace else measure_setup(args)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    inputs = wl.make_inputs(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    probe = workloads.after_call = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        ctx = {"workdir": workdir, "notes": {}}
        recorder = None
        if args.trace:
            from tracing import SpanRecorder
            plain = run_passes(wl, inputs, ctx, args.seconds / 2)
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced = run_passes(wl, inputs, ctx, args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
            passes = plain + traced
        else:
            plain = passes = run_passes(wl, inputs, ctx, args.seconds)
    workloads.after_call = None
    metrics, detail = end_to_end(wl, plain, setup, probe)
    broken = _same_every_pass(passes)
    found = wl.check(inputs, passes[0][0], golden, ctx["notes"])
    broken += found.broken
    # outputs repeat every pass (checked above), so a wrong or broken result
    # is one failed operation in each pass
    n_bad = len(found.wrong) + len(found.broken)
    n_calls = sum(len(calls) for calls, _ in passes)
    n_failed = sum(c.failed for calls, _ in passes for c in calls) + n_bad * len(passes)
    plain_calls = sum(len(calls) for calls, _ in plain)
    plain_failed = sum(c.failed for calls, _ in plain for c in calls) + n_bad * len(plain)
    detail["failed"] = (plain_failed, "count")
    detail["failed_ratio"] = (plain_failed / plain_calls, "ratio")
    detail["wrong_results"] = (len(found.wrong), "count")
    detail["outputs_unchecked"] = (found.unchecked, "count")
    reasons = Counter(f"{c.kind}: {_reason(c.result)}" for c in passes[0][0] if c.failed)

    record = {"workload": wl.name, "environment": env, "seconds": args.seconds,
              "setup_runs_s": setup[1], "raw_setup_runs_s": setup[0],
              "end_to_end": metrics, "detail": detail,
              "failures_first_pass": dict(reasons), "wrong_results": found.wrong,
              "broken": broken,
              "call_seconds": {k: [c.seconds for c in plain[0][0] if c.kind == k]
                               for k in wl.kinds}}
    if recorder is not None:
        # both halves at reference speed: the machine's speed drifts more
        # between them than tracing costs on a one-pass workload
        plain_wall = _wall_and_gmean(plain, probe.scaled)[0]
        overhead = _wall_and_gmean(traced, probe.scaled)[0] - plain_wall
        recorder.counters["cli.bytes_out"] = sum(e.get("bytes_out", 0) for _, e in traced)
        layers = recorder.layer_metrics(len(traced), overhead)
        layers["trace.overhead_ratio"] = (overhead / plain_wall, "ratio")
        record["per_layer"] = layers
        record["traced_passes"] = len(traced)
        recorder.write(RESULTS / f"{stem}.spans.npz")
        out_metrics = layers
    else:
        out_metrics = metrics
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _print_metrics(wl.name, detail)
    for reason, n in reasons.items():
        print(f"{wl.name} failed in first pass: {n} x {reason}")
    for w in found.wrong:
        print(f"{wl.name} WRONG RESULT: {w}")
    for b in broken:
        print(f"{wl.name} CHECK FAILED: {b}")
    print(json.dumps({
        "correct": not broken,
        "attempted": n_calls,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out_metrics.items()},
    }))
    return 0 if not broken else 1


def _reason(result) -> str:
    """A failure's message without its numbers and parameters."""
    if isinstance(result, dict):
        return f"exit code {result['rc']}"
    msg = str(result).split(" for ")[0]
    return re.sub(r"\[[^\]]*\]|\([^)]*\)", "", msg).strip()


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = _child(name, args.seed, "--seconds", str(args.seconds),
                     "--trace", str(args.trace))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        rc = max(rc, proc.returncode)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            print(f"{name} {k} = {v['value']!r} {v['unit']}")
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the golden output digests of the current commit")
    args = ap.parse_args(argv)
    if args.write_golden:
        _import_ifdist()
        import workloads
        workloads.write_golden(str(GOLDEN))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
