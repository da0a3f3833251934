"""One workload process: set up, then run the timed phase (see run.py).

Prints JSON lines on stdout; the last one is the result.  Setup time is
measured from the ``--spawned-at`` timestamp the parent took just before
starting this interpreter (CLOCK_MONOTONIC is shared by all processes on
the machine) to the moment the workload is ready.

Ops and host-speed probes are timed on the process's CPU clock
(``time.process_time``).  The worker is single-threaded (run.py gives BLAS
one thread) and does no I/O, so an op's CPU time is its wall time less the
time the host took the CPU away: preemption by other processes and
hypervisor steal, which set the tail of millisecond ops on a shared VM.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the timed phase is cut into windows of whole rounds with at least this much op time
#: and this many host-speed probes
WINDOW_S = 0.25
WINDOW_PROBES = 10
#: before each op the host-speed probe runs until its own time is this share of the op time
PROBE_SHARE = 0.02
#: probes taken right after set-up, to scale setup_s
SETUP_PROBES = 15
#: time of each probe part on the reference host, to which end-to-end times are scaled
PROBE_NOMINAL_S = {"fraction": 1e-4, "lapack": 1e-4}
#: times are divided by the probe reading to this power: ops slow down by about
#: three quarters as much as the probe does (log-log slope 0.5 to 0.9)
SCALE_EXPONENT = 0.75
#: op_tail_ms is the median tail over up to this many chunks of at least this many ops
TAIL_CHUNKS = 5
TAIL_CHUNK_OPS = 1000

_MATRIX = [[4.0, 1.0, 2.0, 3.0], [1.0, 6.0, 6.0, 7.0], [2.0, 6.0, 11.0, 11.0],
           [3.0, 7.0, 11.0, 16.0]]


def probe(parts: tuple[str, ...]) -> float:
    """Time a fixed snippet of the kind of work a workload does: Python
    object arithmetic ("fraction") and small-matrix LAPACK through numpy
    ("lapack").  Returns the time over its reference-host time.

    On a shared host the same work runs up to 1.7x slower while neighbours
    contend for the core, in spells of seconds to minutes that no process
    clock excludes.  The probe measures that speed between ops.  It calls
    no gptpurity code and times only its second pass, once its own code
    and data are in cache, so a change to the program does not move it.
    """
    import numpy as np
    matrix = np.array(_MATRIX)
    for _ in range(2):
        start = time.process_time()
        if "fraction" in parts:
            frac = Fraction(0)
            for k in range(1, 40):
                frac += Fraction(1, k)
        if "lapack" in parts:
            for _ in range(12):
                np.linalg.eigh(matrix)
        elapsed = time.process_time() - start
    return elapsed / sum(PROBE_NOMINAL_S[p] for p in parts)


def import_package():
    """Import gptpurity from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import gptpurity
    if Path(gptpurity.__file__).resolve().parent != ROOT / "src" / "gptpurity":
        raise ImportError(f"gptpurity imported from {gptpurity.__file__}, not this checkout")
    return gptpurity


def tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond, chunks).  Past 1000 samples
    the count beyond grows as n / 100 (p99), so scheduler stalls do not set
    the tail of millisecond ops.  From 2000 samples on, the run is cut in
    time order into up to TAIL_CHUNKS chunks of at least TAIL_CHUNK_OPS, and
    the value is the median of their tails: a burst of host contention that
    covers fewer than half of the chunks does not move it.
    """
    n = len(latencies)
    k = max(1, min(TAIL_CHUNKS, n // TAIL_CHUNK_OPS))
    values = []
    for j in range(k):
        chunk = sorted(latencies[n * j // k:n * (j + 1) // k])
        m = len(chunk)
        beyond = min(max(10, m // 100), m - 1)
        values.append(chunk[m - 1 - beyond])
    return statistics.median(values), 100.0 * (m - beyond) / m, beyond, k


class Phase:
    """Closed-loop timed phase: whole rounds until ``seconds`` have passed."""

    def __init__(self, workload, tracer=None, first_op: int = 0):
        self.workload = workload
        self.tracer = tracer
        self.next_op = first_op
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gauges: dict[str, float] = {}
        self.kinds: dict[str, list[float]] = {}
        self.rounds: list[tuple[list[float], float, list[float]]] = []   # (op latencies, busy s, probe s)
        self.probes: list[float] = []
        self.probe_time = 0.0

    def run(self, seconds: float) -> "Phase":
        deadline = time.perf_counter() + seconds
        while True:
            done, busy, probed = len(self.latencies), self.busy, len(self.probes)
            for op in self.workload.round():
                while self.probe_time <= PROBE_SHARE * self.busy:
                    start = time.process_time()
                    self.probes.append(probe(self.workload.probe))
                    self.probe_time += time.process_time() - start
                self._issue(op)
            self.rounds.append((self.latencies[done:], self.busy - busy, self.probes[probed:]))
            if time.perf_counter() >= deadline:
                break
        if not self.latencies:
            raise RuntimeError(f"no op completed; first errors: {self.errors[:3]}")
        return self

    def _issue(self, op) -> None:
        self.attempted += 1
        op_id, self.next_op = self.next_op, self.next_op + 1
        call = op.call
        if self.tracer is not None:
            self.tracer.tags[op_id] = op.tag
            call = lambda: self.tracer.run_op(op_id, op.kind, op.call)  # noqa: E731
        start = time.process_time()
        try:
            out = call()
        except Exception as exc:  # a raising op is a failed op, never retried
            self.busy += time.process_time() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.process_time() - start
        self.busy += elapsed
        try:
            gauges = op.check(out)
        except AssertionError as exc:
            self._fail(op, f"check: {exc}")
            return
        for key, value in (gauges or {}).items():
            self.gauges[key] = max(value, self.gauges.get(key, 0.0))
        self.latencies.append(elapsed)
        self.kinds.setdefault(op.kind, []).append(elapsed)

    def _fail(self, op, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.kind}: {reason[:300]}")

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy

    def scaled_windows(self) -> list[tuple[list[float], float]]:
        """The run cut into windows of whole rounds, as (latencies, busy),
        with times scaled to the reference host: each window's times are
        divided by the median probe reading in it, to the power
        SCALE_EXPONENT.  A slower program is slower at any host speed, so
        it still shows."""
        windows, lats, busy, probes = [], [], 0.0, []
        for round_lats, round_busy, round_probes in self.rounds:
            lats, busy, probes = lats + round_lats, busy + round_busy, probes + round_probes
            if busy >= WINDOW_S and len(probes) >= WINDOW_PROBES:
                windows.append((lats, busy, probes))
                lats, busy, probes = [], 0.0, []
        if lats and windows:    # a short last window joins the one before
            last = windows.pop()
            lats, busy, probes = last[0] + lats, last[1] + busy, last[2] + probes
        if lats:
            windows.append((lats, busy, probes))
        scaled = []
        for lats, busy, probes in windows:
            slowdown = statistics.median(probes) ** SCALE_EXPONENT
            scaled.append(([t / slowdown for t in lats], busy / slowdown))
        return scaled


def env_block() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    windows = phase.scaled_windows()
    scaled = [t for lats, _ in windows for t in lats]
    value, percentile, beyond, chunks = tail(scaled)
    metrics = {
        "ops_per_s": {"value": len(scaled) / sum(busy for _, busy in windows), "unit": "ops/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * value, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    detail = {"tail_percentile": percentile, "tail_beyond": beyond, "tail_chunks": chunks,
              "samples": len(phase.latencies), "rounds": len(phase.rounds),
              "probes": len(phase.probes), "probe_slowdown": statistics.median(phase.probes),
              "unscaled": {"ops_per_s": phase.ops_per_s,
                           "op_p50_ms": 1e3 * statistics.median(phase.latencies),
                           "op_tail_ms": 1e3 * tail(phase.latencies)[0]},
              "fail_ratio": phase.failed / phase.attempted,
              "per_kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(phase.kinds.items())}}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gp = import_package()
    import numpy as np
    from workloads import WORKLOADS
    import layers
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(gp)
    workload = WORKLOADS[args.workload](gp, np.random.Generator(np.random.Philox(key=args.seed)))
    workload.setup()
    setup_unscaled_s = time.monotonic() - args.spawned_at
    setup_s = setup_unscaled_s / statistics.median(
        probe(workload.probe) for _ in range(SETUP_PROBES)) ** SCALE_EXPONENT
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_unscaled_s": setup_unscaled_s}))
        return 0

    if tracer is None:
        phase = Phase(workload).run(args.seconds)
        metrics, detail = end_to_end(phase)
    else:
        # half the time untraced, half traced: their ratio is the overhead
        tracer.uninstall()
        plain = Phase(workload).run(args.seconds / 2)
        tracer.install(gp)
        phase = Phase(workload, tracer, first_op=plain.next_op).run(args.seconds / 2)
        tracer.uninstall()
        for key, value in plain.gauges.items():
            phase.gauges[key] = max(value, phase.gauges.get(key, 0.0))
        metrics, detail = layers.per_layer(tracer, phase, plain)
        phase.attempted += plain.attempted
        phase.failed += plain.failed
        phase.errors = plain.errors + phase.errors
    detail.update({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                   "setup_unscaled_s": setup_unscaled_s,
                   "attempted": phase.attempted, "failed": phase.failed,
                   "errors": phase.errors, "env": env_block(), **workload.describe()})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": phase.failed == 0, "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
