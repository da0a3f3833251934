"""Self-tests of the benchmark: smoke runs, checkers, tracer.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import worker
from spans import Tracer
from worker import import_package
from workloads import Boxworld, Duality, Eof, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
gp = import_package()


def _run(workload, trace=0, seconds=0.01):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    result = _run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_prints_every_per_layer_metric():
    result = _run("duality", trace=1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["quantum.marginals.calls"]["value"] > 0


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layers.METRICS


def test_defects_probe_counts_known_failures():
    result = _run("defects")
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def test_no_sources_means_no_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "duality",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_times_are_divided_by_the_probe_reading(monkeypatch):
    class Sums(Workload):
        def round(self):
            return [Op("sum", partial(sum, range(50000)), lambda out: None) for _ in range(4)]

    monkeypatch.setattr(worker, "probe", lambda parts: 2.0)
    phase = worker.Phase(Sums(gp, None)).run(0.5)
    metrics, detail = worker.end_to_end(phase)
    raw, factor = detail["unscaled"], 2.0 ** worker.SCALE_EXPONENT
    assert metrics["ops_per_s"]["value"] == pytest.approx(factor * raw["ops_per_s"])
    assert metrics["op_p50_ms"]["value"] == pytest.approx(raw["op_p50_ms"] / factor)
    assert metrics["op_tail_ms"]["value"] == pytest.approx(raw["op_tail_ms"] / factor)


def test_a_burst_in_one_chunk_does_not_set_the_tail():
    steady = [1.0 + (k % 100) / 100 for k in range(5000)]
    burst = [10.0 if 200 <= k < 300 else t for k, t in enumerate(steady)]
    assert worker.tail(steady[:1500])[3] == 1
    value, percentile, beyond, chunks = worker.tail(burst)
    assert (chunks, beyond, percentile) == (5, 10, 99.0)
    assert value < 2.0 and value == pytest.approx(worker.tail(steady)[0], rel=0.01)


# -- checkers reject wrong answers -------------------------------------------

def _first_op(workload_cls, kind_prefix="", seed=5):
    workload = workload_cls(gp, np.random.Generator(np.random.Philox(key=seed)))
    workload.setup()
    return next(op for op in workload.round() if op.kind.startswith(kind_prefix))


def test_eof_checker_rejects_gap_of_2e_3():
    op = _first_op(Eof, "eof/rank3")
    value = op.call()
    op.check(value)
    with pytest.raises(checks.CheckFailed):
        op.check(value + 2e-3)


def test_duality_checker_rejects_flipped_nielsen_verdict():
    for d in (2, 3, 4):
        op = _first_op(Duality, f"pair/d{d}")
        out = op.call()
        op.check(out)
        flipped = [(not out[0][0], None, None, None), out[1]]
        with pytest.raises(checks.CheckFailed):
            op.check(flipped)


def test_exchange_checker_rejects_pair_that_misses_the_swap():
    box = gp.pr_box_k(3, 3, 3)
    r_a, r_b = gp.check_local_exchangeability(box)
    table = checks.table_of(box)
    checks.check_exchange(table, (r_a, r_b))
    perms = list(r_b.outcome_perms)
    perms[0] = perms[0][1:] + perms[0][:1]
    wrong = gp.LocalRelabeling("B", r_b.setting_perm, tuple(perms))
    with pytest.raises(checks.CheckFailed):
        checks.check_exchange(table, (r_a, wrong))
    with pytest.raises(checks.CheckFailed):
        checks.check_exchange(table, None)


def test_boxworld_lopsided_box_has_no_exchange():
    op = _first_op(Boxworld, "check_local_exchangeability/lopsided")
    assert op.call() is None
    op.check(None)


def test_more_mixed_checker_rejects_flipped_verdict():
    system = gp.make_classical(3)
    p, q = np.array([0.7, 0.2, 0.1]), np.array([0.4, 0.35, 0.25])
    cert = gp.more_mixed(system.state(p), system.state(q))
    checks.check_more_mixed(system.group, p, q, cert, classical=True)
    wrong = gp.FeasibilityCertificate("infeasible", None, float("inf"))
    with pytest.raises(checks.CheckFailed):
        checks.check_more_mixed(system.group, p, q, wrong, classical=True)


# -- tracer -------------------------------------------------------------------

def test_tracer_attributes_imported_copies_and_restores():
    original = gp.quantum.birkhoff_rare_synthesis
    tracer = Tracer()
    tracer.install(gp)
    try:
        assert gp.quantum.birkhoff_rare_synthesis is gp.mixedness.birkhoff_rare_synthesis
        tracer.run_op(0, "demo", lambda: gp.rare_synthesis_quantum(
            gp.DensityMatrix.maximally_mixed(2), gp.DensityMatrix.diagonal([0.7, 0.3])))
    finally:
        tracer.uninstall()
    assert gp.quantum.birkhoff_rare_synthesis is original
    names = [s.name for s in tracer.spans]
    assert "mixedness.birkhoff_rare_synthesis" in names and "core.make_classical" in names
    op = next(s for s in tracer.spans if s.name == "op:demo")
    top = [s for s in tracer.spans if s.parent is op]
    assert op.child_time == pytest.approx(sum(s.duration for s in top))
    assert all(s.self_time >= 0 for s in tracer.spans)
