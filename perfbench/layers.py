"""Per-layer metrics from the spans of a traced run.

A layer is a gptpurity module; a metric is ``<module>.<function>.<stat>``.
Conventions, applied to every workload so that a layer a workload never
touches reads 0:

* ``calls``   calls per op of the traced phase;
* ``ms``      mean duration per call, in ms, over set-up and traced phase;
* ``self_ms`` the same for self time (duration minus child spans).
"""

from __future__ import annotations

from collections import defaultdict

#: (metric, unit) in the order BENCHMARK.json lists them
METRICS = [
    ("core.validate_system.ms", "ms"),
    ("core.make_classical.calls", "calls/op"),
    ("core.make_classical.ms", "ms"),
    ("simplex.phase1.calls", "calls/op"),
    ("simplex.phase1.self_ms", "ms"),
    ("simplex.phase1.cols_mean", "count"),
    ("simplex.phase1.cols_max", "count"),
    ("simplex.solve.calls", "calls/op"),
    ("simplex.solve.self_ms", "ms"),
    ("mixedness.feasible_convex_combination.self_ms", "ms"),
    ("mixedness.more_mixed.ms", "ms"),
    ("mixedness.more_mixed.ill_conditioned", "ratio"),
    ("mixedness.orbit_hull.ms", "ms"),
    ("mixedness.invariant_state.ms", "ms"),
    *[(f"mixedness.birkhoff_rare_synthesis.ms_n{n}", "ms") for n in range(2, 7)],
    ("mixedness.birkhoff_rare_synthesis.terms_mean", "count"),
    ("mixedness.majorizes.calls", "calls/op"),
    ("mixedness.majorizes.ms", "ms"),
    ("monotones.enumerate_pure_measurements.calls", "calls/op"),
    ("monotones.enumerate_pure_measurements.ms", "ms"),
    ("monotones.enumerate_pure_measurements.measurements", "count"),
    ("monotones.enumerate_pure_measurements.incomplete", "ratio"),
    ("monotones.f_purity.ms", "ms"),
    ("monotones.measurement_entropy.ms", "ms"),
    ("monotones.op_norm_distance.ms", "ms"),
    ("monotones.purity_2norm.ms", "ms"),
    ("quantum.marginals.calls", "calls/op"),
    ("quantum.marginals.ms", "ms"),
    ("quantum.nielsen_convertible.ms", "ms"),
    ("quantum.rare_synthesis_quantum.ms", "ms"),
    ("quantum.one_way_locc_from_rare.ms", "ms"),
    *[(f"quantum.entanglement_of_formation.ms_rank{r}", "ms") for r in range(1, 5)],
    ("quantum.eof.minimize.calls", "calls/op"),
    ("quantum.eof.minimize.ms", "ms"),
    ("quantum.eof.minimize.nfev", "count"),
    ("quantum.eof.minimize.nit", "count"),
    ("quantum.eof.sweep_ms", "ms"),
    *[(f"quantum.eof.max_gap_rank{r}", "ebit") for r in range(2, 5)],
    ("boxworld.validate.ms", "ms"),
    ("boxworld.is_extreme.ms", "ms"),
    ("boxworld.check_local_exchangeability.ms", "ms"),
    ("boxworld.check_local_exchangeability.found", "ratio"),
    ("boxworld.apply_relabeling.calls", "calls/search"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.slowdown", "ratio"),
    ("trace.unattributed_share", "ratio"),
]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer, traced, plain) -> tuple[dict, dict]:
    """Metrics of the traced phase ``traced``; ``plain`` ran untraced."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    ops = [s for name in [n for n in by_name if n.startswith("op:")] for s in by_name.pop(name)]
    n_ops = len(ops)

    def spans(name, in_ops=False):
        return [s for s in by_name.get(name, []) if not in_ops or s.op is not None]

    def calls(name) -> float:
        return len(spans(name, in_ops=True)) / n_ops

    def ms(name, pick=lambda s: True) -> float:
        return 1e3 * _mean(s.duration for s in spans(name) if pick(s))

    def self_ms(name) -> float:
        return 1e3 * _mean(s.self_time for s in spans(name))

    def extra(name, key) -> list:
        return [s.extra[key] for s in spans(name) if key in s.extra]

    tags = tracer.tags
    rank_of = lambda s: tags.get(s.op, {}).get("rank")  # noqa: E731
    birkhoff = "mixedness.birkhoff_rare_synthesis"
    eof = "quantum.entanglement_of_formation"
    search = "boxworld.check_local_exchangeability"
    cols = extra("simplex.phase1", "cols")
    more_mixed = spans("mixedness.more_mixed")
    op_time = sum(s.duration for s in ops)
    attributed = sum(s.child_time for s in ops)

    values = {
        "core.validate_system.ms": ms("core.validate_system"),
        "core.make_classical.calls": calls("core.make_classical"),
        "core.make_classical.ms": ms("core.make_classical"),
        "simplex.phase1.calls": calls("simplex.phase1"),
        "simplex.phase1.self_ms": self_ms("simplex.phase1"),
        "simplex.phase1.cols_mean": _mean(cols),
        "simplex.phase1.cols_max": max(cols, default=0),
        "simplex.solve.calls": calls("simplex.solve"),
        "simplex.solve.self_ms": self_ms("simplex.solve"),
        "mixedness.feasible_convex_combination.self_ms": self_ms("mixedness.feasible_convex_combination"),
        "mixedness.more_mixed.ms": ms("mixedness.more_mixed"),
        "mixedness.more_mixed.ill_conditioned":
            _mean(s.error == "IllConditionedError" for s in more_mixed),
        "mixedness.orbit_hull.ms": ms("mixedness.orbit_hull"),
        "mixedness.invariant_state.ms": ms("mixedness.invariant_state"),
        **{f"{birkhoff}.ms_n{n}": ms(birkhoff, lambda s, n=n: s.extra.get("n") == n)
           for n in range(2, 7)},
        f"{birkhoff}.terms_mean": _mean(extra(birkhoff, "terms")),
        "mixedness.majorizes.calls": calls("mixedness.majorizes"),
        "mixedness.majorizes.ms": ms("mixedness.majorizes"),
        "monotones.enumerate_pure_measurements.calls": calls("monotones.enumerate_pure_measurements"),
        "monotones.enumerate_pure_measurements.ms": ms("monotones.enumerate_pure_measurements"),
        "monotones.enumerate_pure_measurements.measurements":
            _mean(extra("monotones.enumerate_pure_measurements", "measurements")),
        "monotones.enumerate_pure_measurements.incomplete":
            _mean(extra("monotones.enumerate_pure_measurements", "incomplete")),
        "monotones.f_purity.ms": ms("monotones.f_purity"),
        "monotones.measurement_entropy.ms": ms("monotones.measurement_entropy"),
        "monotones.op_norm_distance.ms": ms("monotones.op_norm_distance"),
        "monotones.purity_2norm.ms": ms("monotones.purity_2norm"),
        "quantum.marginals.calls": calls("quantum.marginals"),
        "quantum.marginals.ms": ms("quantum.marginals"),
        "quantum.nielsen_convertible.ms": ms("quantum.nielsen_convertible"),
        "quantum.rare_synthesis_quantum.ms": ms("quantum.rare_synthesis_quantum"),
        "quantum.one_way_locc_from_rare.ms": ms("quantum.one_way_locc_from_rare"),
        **{f"{eof}.ms_rank{r}": ms(eof, lambda s, r=r: rank_of(s) == r) for r in range(1, 5)},
        "quantum.eof.minimize.calls": calls("quantum.eof.minimize"),
        "quantum.eof.minimize.ms": ms("quantum.eof.minimize"),
        "quantum.eof.minimize.nfev": _mean(extra("quantum.eof.minimize", "nfev")),
        "quantum.eof.minimize.nit": _mean(extra("quantum.eof.minimize", "nit")),
        "quantum.eof.sweep_ms": self_ms(eof),
        **{f"quantum.eof.max_gap_rank{r}": traced.gauges.get(f"eof.max_gap_rank{r}", 0.0)
           for r in range(2, 5)},
        "boxworld.validate.ms": ms("boxworld.validate"),
        "boxworld.is_extreme.ms": ms("boxworld.is_extreme"),
        f"{search}.ms": ms(search),
        f"{search}.found": _mean(extra(search, "found")),
        "boxworld.apply_relabeling.calls":
            len(spans("boxworld.apply_relabeling", in_ops=True)) / max(1, len(spans(search, in_ops=True))),
        "trace.ops_per_s_untraced": plain.ops_per_s,
        "trace.ops_per_s_traced": traced.ops_per_s,
        "trace.slowdown": plain.ops_per_s / traced.ops_per_s,
        "trace.unattributed_share": (op_time - attributed) / op_time,
    }
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in METRICS}
    # time by layer: self time of every wrapped span inside an op, per op
    by_layer = defaultdict(float)
    for name, group in by_name.items():
        for s in group:
            if s.op is not None:
                by_layer[name.split(".")[0]] += s.self_time
    detail = {"ops_traced": n_ops, "op_ms_traced": 1e3 * op_time / n_ops,
              "self_ms_per_op_by_layer": {k: 1e3 * v / n_ops for k, v in sorted(by_layer.items())},
              "unattributed_ms_per_op": 1e3 * (op_time - attributed) / n_ops,
              "validate_system_max_ms": 1e3 * max((s.duration for s in spans("core.validate_system")),
                                                  default=0.0)}
    return metrics, detail
