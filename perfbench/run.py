"""gptpurity benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload duality --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gptpurity is imported from its ``src``.
Each run starts fresh worker processes (worker.py).  With ``--trace 0``
it reports the end-to-end metrics: ``setup_s`` is the median over
SETUP_RUNS processes of the time from interpreter spawn to ready, and the
others come from the last of them, which runs the timed phase.  All times
are scaled to the reference host by the host-speed probe (worker.probe).  With
``--trace 1`` one traced process reports the per-layer metrics.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds run details (tail percentile,
per-kind medians, failures, env).  Exit status is non-zero, with no
result, when the checkout has no gptpurity sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
#: workers still running this long after the start are stopped
BUDGET_S = 170
#: numpy's BLAS runs one thread in the workers.  On gptpurity's small
#: matrices a second thread only spins: eof ran at 180 % CPU with op times no
#: shorter than on one thread, and on a 2-vCPU host that spinning competes
#: with the timed thread.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, extra: list[str], deadline: float) -> list[dict]:
    """Run one worker, stopped at ``deadline``; return its stdout JSON lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                          env={**os.environ, **WORKER_ENV}, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gptpurity" / "__init__.py").is_file():
        print(f"no gptpurity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        setups, unscaled = [], []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                line = spawn(args, ["--setup-only"], deadline)[-1]
                setups.append(line["setup_s"])
                unscaled.append(line["setup_unscaled_s"])
        *lines, result = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    detail = lines[-1]["detail"]
    if not args.trace:
        setups.append(detail["setup_s"])
        unscaled.append(detail["setup_unscaled_s"])
        detail["setup_samples_s"] = setups
        detail["setup_unscaled_samples_s"] = unscaled
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
