"""Full benchmark report: every workload, end to end and traced.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--output perfbench/out/report.json]

Runs each workload of BENCHMARK.json once with tracing off and once with
tracing on, plus the two probes (eof-probe: EoF at ranks 2 and 4; defects:
inputs that hit known defects).  Prints the end-to-end metrics with units,
the failure ratio and the tail percentile per workload, the tracing
overhead, and the cross-check against the ROADMAP baseline; writes all of
it, with the run environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: not listed in BENCHMARK.json, so reported but never gated
PROBES = ("eof-probe", "defects")
#: figures of the ROADMAP baseline (Python 3.11.7, numpy 2.4.6, scipy 1.17.1), in ms
ROADMAP_MS = {
    "EoF rank 2": 360.0,
    "EoF rank 3": 780.0,
    "EoF rank 4": 2000.0,
    "validate_system(classical-6)": 1900.0,
    "pentagon default enumeration (incomplete)": 2300.0,
    "check_local_exchangeability(prk 5)": 8.4,
    "duality, one d=4 pair": 1.3,
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed with exit {proc.returncode}")
    *_, detail, result = proc.stdout.splitlines()
    return {**json.loads(result), "detail": json.loads(detail)["detail"]}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def cross_check(results: dict) -> dict:
    """Measured counterparts of the ROADMAP baseline figures, in ms."""
    kinds = {w: r["plain"]["detail"]["per_kind_p50_ms"] for w, r in results.items()}
    layer = {w: r["traced"]["metrics"] for w, r in results.items()}
    enum = layer["defects"]
    return {
        "EoF rank 2": kinds["eof-probe"]["eof/rank2"],
        "EoF rank 3": kinds["eof"]["eof/rank3"],
        "EoF rank 4": kinds["eof-probe"]["eof/rank4"],
        "validate_system(classical-6)":
            results["polytope"]["traced"]["detail"]["validate_system_max_ms"],
        "pentagon default enumeration (incomplete)":
            enum["monotones.enumerate_pure_measurements.ms"]["value"],
        "check_local_exchangeability(prk 5)": kinds["boxworld"]["check_local_exchangeability/prk5-2set"],
        "duality, one d=4 pair": kinds["duality"]["pair/d4"],
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--output", default=str(HERE / "out" / "report.json"))
    args = ap.parse_args(argv)

    gated = tuple(w["name"] for w in bench["workloads"])
    results = {}
    for workload in gated + PROBES:
        results[workload] = {"plain": run(workload, args.seed, args.seconds, 0),
                             "traced": run(workload, args.seed, args.seconds, 1)}
        print(f"ran {workload}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"{'workload':10s} " + " ".join(f"{f'{n} [{u}]':>22s}" for n, u in units.items())
          + f" {'fail_ratio [1]':>15s} {'tail pct (n)':>16s} {'trace slowdown':>15s}")
    for workload, r in results.items():
        plain, detail = r["plain"], r["plain"]["detail"]
        row = " ".join(f"{plain['metrics'][n]['value']:22.4f}" for n in units)
        slowdown = r["traced"]["metrics"]["trace.slowdown"]["value"]
        tail = f"p{detail['tail_percentile']:.2f} ({detail['samples']})"
        print(f"{workload:10s} {row} {detail['fail_ratio']:15.4f} {tail:>16s} {slowdown:15.3f}")

    checks = cross_check(results)
    print(f"\n{'ROADMAP baseline cross-check':45s} {'ROADMAP ms':>12s} {'measured ms':>12s}")
    for name, measured in checks.items():
        print(f"{name:45s} {ROADMAP_MS[name]:12.1f} {measured:12.1f}")

    env = results["duality"]["plain"]["detail"]["env"]
    report = {
        "env": {**env, "git_commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
                "load": "one single-threaded client process, BLAS on one thread"},
        "workloads": {
            w: {"gated": w in gated,
                **{k: r["plain"]["detail"][k] for k in ("closed_loop", "mix", "why", "bypasses", "calls")},
                "end_to_end": r["plain"]["metrics"],
                "fail_ratio": r["plain"]["detail"]["fail_ratio"],
                "attempted": r["plain"]["attempted"], "failed": r["plain"]["failed"],
                "errors": r["plain"]["detail"]["errors"],
                "tail": {"percentile": r["plain"]["detail"]["tail_percentile"],
                         "samples": r["plain"]["detail"]["samples"],
                         "beyond": r["plain"]["detail"]["tail_beyond"],
                         "chunks": r["plain"]["detail"]["tail_chunks"]},
                "unscaled": r["plain"]["detail"]["unscaled"],
                "probe_slowdown": r["plain"]["detail"]["probe_slowdown"],
                "per_kind_p50_ms": r["plain"]["detail"]["per_kind_p50_ms"],
                "per_layer": r["traced"]["metrics"],
                "trace": {k: r["traced"]["detail"][k] for k in
                          ("ops_traced", "op_ms_traced", "self_ms_per_op_by_layer",
                           "unattributed_ms_per_op")}}
            for w, r in results.items()},
        "roadmap_cross_check_ms": {name: {"roadmap": ROADMAP_MS[name], "measured": value}
                                   for name, value in checks.items()},
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
