import numpy as np
import pytest

from gptpurity import harness, replay_classical_counterexample, replay_duality_counterexample
from gptpurity.core import StructuralError
from gptpurity.harness import (SuiteReport, TrialConfig, run_catalyst_suite,
                               run_classical_agreement_suite, run_duality_suite,
                               run_maximal_entanglement_suite)
from gptpurity.serialize import complex_to_pairs, dump_json


def test_config_validation():
    with pytest.raises(StructuralError):
        TrialConfig(trials=0)
    for bad in ({"seed": -1}, {"seed": 2 ** 128}, {"dims": ()}, {"dims": (2, -3)},
                {"sizes": (0,)}):
        with pytest.raises(StructuralError):
            TrialConfig(**bad)


def test_report_invariant():
    with pytest.raises(StructuralError):
        SuiteReport("x", trials=3, agreements=1, counterexamples=[{}])


def test_duality_suite_clean():
    report = run_duality_suite(TrialConfig(seed=101, trials=40, dims=(2, 3)))
    assert report.trials == 80
    assert report.ok


def test_classical_suite_clean():
    report = run_classical_agreement_suite(TrialConfig(seed=5, trials=150))
    assert report.trials == 600
    assert report.ok


def test_maximal_entanglement_suite_clean():
    report = run_maximal_entanglement_suite(TrialConfig(seed=2, trials=25))
    assert report.ok


def test_catalyst_suite_clean():
    report = run_catalyst_suite(TrialConfig(seed=3, trials=40))
    assert report.ok


def test_determinism_byte_identical():
    cfg = TrialConfig(seed=77, trials=15, dims=(2, 3))
    for runner in (run_duality_suite, run_classical_agreement_suite,
                   run_maximal_entanglement_suite, run_catalyst_suite):
        one = dump_json(runner(cfg).to_dict(include_timing=False))
        two = dump_json(runner(cfg).to_dict(include_timing=False))
        assert one == two, runner.__name__


def test_report_roundtrip():
    report = run_duality_suite(TrialConfig(seed=4, trials=5, dims=(2,)))
    again = SuiteReport.from_dict(report.to_dict())
    assert again.to_dict(include_timing=False) == report.to_dict(include_timing=False)


def test_duality_replay_on_agreeing_pair():
    # a record built from a healthy pair must not replay as a counterexample
    rng = np.random.Generator(np.random.Philox(key=9))
    from gptpurity.quantum import random_pure_state
    psi = random_pure_state((2, 2), rng)
    phi = random_pure_state((2, 2), rng)
    detail = {"dim": 2, "psi": complex_to_pairs(psi.vec), "phi": complex_to_pairs(phi.vec)}
    assert not replay_duality_counterexample(detail)


def test_classical_replay_on_agreeing_pair():
    detail = {"n": 3, "p": [0.5, 0.3, 0.2], "q": [0.4, 0.35, 0.25]}
    assert not replay_classical_counterexample(detail)


def test_catalyst_margin_is_multiplicative():
    from gptpurity.quantum import DensityMatrix, random_density_matrix
    rng = np.random.Generator(np.random.Philox(key=12))
    rho = DensityMatrix.diagonal([0.7, 0.3])
    for d in (2, 3, 4):
        gamma = random_density_matrix(d, rng)
        joint = np.kron(rho.matrix, gamma.matrix)
        margin = gamma.purity() - float(np.trace(joint @ joint).real)
        assert abs(margin - 0.42 * gamma.purity()) < 1e-10
    qutrit = DensityMatrix.maximally_mixed(3)
    gamma = random_density_matrix(2, rng)
    joint = np.kron(qutrit.matrix, gamma.matrix)
    margin = gamma.purity() - float(np.trace(joint @ joint).real)
    assert abs(margin - (2.0 / 3.0) * gamma.purity()) < 1e-10


def test_incomparable_pair_infeasible_both_ways():
    from gptpurity.core import make_classical
    from gptpurity.mixedness import majorizes, more_mixed
    trit = make_classical(3)
    p = trit.state([0.5, 0.26, 0.24])
    q = trit.state([0.48, 0.48, 0.04])
    assert not majorizes(p.vec, q.vec)
    assert not majorizes(q.vec, p.vec)
    assert not more_mixed(p, q).feasible
    assert not more_mixed(q, p).feasible


# each suite with a patch that makes most of its trials disagree
_FORCED_DISAGREEMENTS = {
    "duality": (run_duality_suite, "majorizes", lambda p, q: False),
    "classical-agreement": (run_classical_agreement_suite, "majorizes", lambda p, q: False),
    "maximal-entanglement": (run_maximal_entanglement_suite, "nielsen_convertible",
                             lambda a, b: False),
    "catalyst": (run_catalyst_suite, "MULTIPLICATIVITY_TOL", -1.0),
}


@pytest.mark.parametrize("suite", sorted(_FORCED_DISAGREEMENTS))
def test_counterexample_budget_bounds_report(monkeypatch, suite):
    runner, name, patch = _FORCED_DISAGREEMENTS[suite]
    monkeypatch.setattr(harness, name, patch)
    cfg = TrialConfig(seed=6, trials=200, dims=(2, 3), sizes=(3, 4))
    report = runner(cfg)
    assert report.suite == suite
    assert len(report.counterexamples) == harness.COUNTEREXAMPLE_BUDGET
    assert report.trials == report.agreements + harness.COUNTEREXAMPLE_BUDGET
    assert report.trials < cfg.trials  # stopped inside the first dim or size


def test_duality_suite_holds_completeness_to_the_verify_tolerance(monkeypatch):
    # a residual between TRACE_PRESERVING_TOL and PROTOCOL_TOL fails verify,
    # so the suite must not count that direction as agreeing either
    from gptpurity import harness as h
    from gptpurity.quantum import (OneWayProtocol, PureBipartiteState, marginals,
                                   maximally_entangled, one_way_locc_from_rare,
                                   rare_synthesis_quantum)
    psi = maximally_entangled(2)
    target = PureBipartiteState((2, 2), np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)]))
    assert h._check_direction(psi, target)["agree"]
    monkeypatch.setattr(OneWayProtocol, "completeness_residual", lambda self: 5e-9)
    out = h._check_direction(psi, target)
    assert out["completeness_residual"] == 5e-9 and not out["agree"]
    rare = rare_synthesis_quantum(marginals(psi)[0], marginals(target)[0])
    assert not one_way_locc_from_rare(psi, target, rare).verify(psi, target)


def test_duality_suite_checks_nielsen_against_an_independent_marginal_spectrum(monkeypatch):
    # Nielsen reads the Schmidt weights off each state's SVD.  Give every state
    # the singular values of a maximally entangled one, its coefficient matrix
    # m unchanged: Nielsen then calls every direction convertible, and the
    # marginal side, eigvalsh of m m^dag, must disagree
    from gptpurity.quantum import PureBipartiteState
    true_svd = PureBipartiteState._svd.func

    def corrupted(self):
        u, s, vh = true_svd(self)
        return u, np.full_like(s, 1.0 / np.sqrt(s.size)), vh

    monkeypatch.setattr(PureBipartiteState, "_svd", property(corrupted))
    report = run_duality_suite(TrialConfig(seed=2, trials=20, dims=(3,)))
    directions = [detail[side] for detail in report.counterexamples
                  for side in ("forward", "backward")]
    assert any(d["convertible"] and not d["spectra_majorize"] for d in directions)


def test_catalyst_suite_names_both_margins_in_a_counterexample(monkeypatch):
    monkeypatch.setattr(harness, "ZERO_TOL", 1.0)
    report = run_catalyst_suite(TrialConfig(seed=3, trials=5))
    assert len(report.counterexamples) == 5
    for detail in report.counterexamples:
        assert 0.0 < detail["purity_margin"] < 1.0 and 0.0 < detail["ky_fan_margin"] < 1.0
        assert detail["product_ok"]


def test_classical_replay_reproduces_a_recorded_counterexample(monkeypatch):
    # the suite and its replay share one trial check, so a patched-in
    # disagreement replays as a failure, and replays clean once removed
    from gptpurity import harness as h
    monkeypatch.setattr(h, "majorizes", lambda p, q: False)
    report = h.run_classical_agreement_suite(TrialConfig(seed=6, trials=20, sizes=(3,)))
    detail = report.counterexamples[0]
    assert detail["lp_verdict"] and not detail["majorizes"]
    assert replay_classical_counterexample(detail)
    monkeypatch.undo()
    assert not replay_classical_counterexample(detail)


def test_classical_suite_checks_majorization_against_the_orbit_lp(monkeypatch):
    # classical more_mixed answers by majorization, so the suite's LP side must
    # come from the simplex: a phase-1 that says "infeasible" to every pair
    # (y rises by 1e-8 on every probability vector, weak enough to pass the
    # Farkas check) makes every majorized pair a counterexample
    from gptpurity import simplex

    def infeasible(a, b):
        y = np.ones(a.shape[0])
        y[-1] = -1.0 + 1e-8
        return False, np.zeros(a.shape[1]), y

    monkeypatch.setattr(simplex, "phase1", infeasible)
    report = run_classical_agreement_suite(TrialConfig(seed=6, trials=20, sizes=(3,)))
    assert report.counterexamples
    assert all(d["majorizes"] and not d["lp_verdict"] for d in report.counterexamples)


def test_classical_suite_counts_a_raising_witness(monkeypatch):
    # a Birkhoff synthesis that raises is a counterexample, as in the duality
    # suite, and the replay reproduces it
    def broken(p, q, system=None):
        raise RuntimeError("synthesis failed")

    monkeypatch.setattr(harness, "birkhoff_rare_synthesis", broken)
    report = run_classical_agreement_suite(TrialConfig(seed=6, trials=50, sizes=(3,)))
    assert len(report.counterexamples) == harness.COUNTEREXAMPLE_BUDGET
    detail = report.counterexamples[0]
    assert detail["majorizes"] and detail["witness_error"] == "synthesis failed"
    assert replay_classical_counterexample(detail)
    monkeypatch.undo()
    assert not replay_classical_counterexample(detail)


def test_catalyst_suite_refuses_dims_outside_2_to_4_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(harness, "_rng", lambda seed: drawn.append(seed))
    with pytest.raises(StructuralError):
        run_catalyst_suite(TrialConfig(dims=(5,)))
    assert not drawn
