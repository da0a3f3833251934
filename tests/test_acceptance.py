"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; every tolerance is pinned here exactly as specified.
"""

import numpy as np
import pytest

from gptpurity import core, mixedness, monotones, quantum
from gptpurity.harness import TrialConfig, run_classical_agreement_suite, run_duality_suite
from gptpurity.monotones import builtin_monotones
from gptpurity.quantum import (DensityMatrix, catalytic_erasure_possible,
                               entanglement_of_formation, marginals, purify,
                               random_density_matrix, random_pure_state,
                               rare_synthesis_quantum, symmetric_purify)
from gptpurity.serialize import dump_json

from oracles import wootters_eof


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS  [{detail}]")


def test_criterion_1_duality_with_witnesses():
    cfg = TrialConfig(seed=20260810, trials=500, dims=(2, 3, 4))
    report = run_duality_suite(cfg)
    assert report.trials == 1500
    assert report.agreements == 1500, report.counterexamples[:1]
    _report(1, "duality", "1500/1500 pairs agree; all witnesses within tolerance")


def test_criterion_2_classical_equivalence():
    cfg = TrialConfig(seed=424242, trials=1000, sizes=(2, 3, 4, 5))
    report = run_classical_agreement_suite(cfg)
    assert report.trials == 4000
    assert report.agreements == 4000, report.counterexamples[:1]
    _report(2, "classical equivalence", "4000/4000 pairs agree; Birkhoff residuals <= 1e-9")


def test_criterion_3_square_bit():
    sb = core.make_square_bit()
    chi = mixedness.invariant_state(sb)
    assert np.max(np.abs(chi.vec - np.array([0.0, 0.0, 1.0]))) <= 1e-10

    hull = mixedness.orbit_hull(sb.state([0.5, 0.2, 1.0]))
    assert len(hull) == 8

    rng = np.random.default_rng(777)
    for vertex in sb.pure_states:
        rho = sb.state(vertex)
        for _ in range(100):
            mix = rng.dirichlet(np.ones(4))
            sigma = sb.state(sum(w * v for w, v in zip(mix, sb.pure_states)))
            cert = mixedness.more_mixed(rho, sigma)
            assert cert.feasible and cert.residual <= 1e-8
    _report(3, "square bit", "center invariant; octagon hull; vertices reach 100 random states")


def test_criterion_4_box_world():
    from gptpurity.boxworld import (check_local_exchangeability, is_extreme,
                                    pr_box_k, standard_pr_box)
    boxes = [("standard", standard_pr_box())]
    boxes += [(f"k={k}", pr_box_k(k, k, k)) for k in (2, 3, 4, 5)]
    for name, box in boxes:
        assert box.validate() == [], name
        assert is_extreme(box), name
        assert check_local_exchangeability(box) is not None, name
    _report(4, "box world", "NS, extremality, and exchange witnesses exact for all 5 boxes")


def test_criterion_5_monotones():
    systems = [core.make_classical(n) for n in (2, 3, 4, 5)] + [core.make_square_bit()]
    rng = np.random.default_rng(1234)
    total_degradations = 0
    for sys in systems:
        table = builtin_monotones()
        # invariance on every vertex under every group element
        for name, fn in table.items():
            for v in sys.pure_states:
                base = fn(sys.state(v))
                for u in sys.group:
                    assert abs(fn(sys.state(u @ v)) - base) <= 1e-9, (sys.name, name)
        # convexity on sampled vertex mixtures
        for name, fn in table.items():
            for _ in range(10):
                mixes = [rng.dirichlet(np.ones(len(sys.pure_states))) for _ in range(2)]
                states = [sys.state(sum(w * v for w, v in zip(m, sys.pure_states)))
                          for m in mixes]
                lam = rng.random()
                blend = sys.state(lam * states[0].vec + (1 - lam) * states[1].vec)
                assert fn(blend) <= lam * fn(states[0]) + (1 - lam) * fn(states[1]) + 1e-9
        # monotonicity under sampled RaRe degradations
        for name, fn in table.items():
            check = monotones.schur_convexity_check(fn, sys, trials=50,
                                                    seed=rng.integers(1 << 31),
                                                    name=name)
            total_degradations += 50
            assert check.ok, (sys.name, name, check.violations[:1])
    assert total_degradations >= 1000

    qubit_bits = monotones.measurement_entropy(DensityMatrix.maximally_mixed(2)).value
    assert abs(qubit_bits - 1.0) <= 1e-9
    sb = core.make_square_bit()
    center_bits = monotones.measurement_entropy(sb.state([0.0, 0.0, 1.0])).value
    assert abs(center_bits - 1.0) <= 1e-9
    _report(5, "monotones", f"{total_degradations} degradations, zero violations; "
                            "both entropy anchors at 1 bit")


def test_criterion_6_entanglement_of_formation():
    bell = DensityMatrix.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert abs(entanglement_of_formation(bell) - 1.0) <= 1e-6

    product = DensityMatrix.pure([1, 0, 0, 0])
    assert abs(entanglement_of_formation(product)) <= 1e-9

    rng = np.random.Generator(np.random.Philox(key=606060))
    worst = 0.0
    for i in range(200):
        rank = int(rng.integers(1, 5))
        rho = random_density_matrix(4, rng, rank=rank)
        ours = entanglement_of_formation(rho)
        oracle = wootters_eof(rho.matrix)
        worst = max(worst, abs(ours - oracle))
        assert abs(ours - oracle) <= 1e-3, (i, rank, ours, oracle)
    _report(6, "entanglement of formation",
            f"Bell/product anchors exact; 200 states, max oracle gap {worst:.2e}")


def test_criterion_7_catalytic_erasure():
    rng = np.random.Generator(np.random.Philox(key=707070))
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng, rank=int(rng.integers(2, d + 1)))
        verdict = catalytic_erasure_possible(rho)
        assert not verdict.possible
        assert verdict.margin > 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng, rank=1)
        verdict = catalytic_erasure_possible(rho)
        assert verdict.possible
        assert abs(verdict.margin) <= 1e-9
    # 2-norm monotonicity under synthesized RaRe channels
    for _ in range(50):
        d = int(rng.integers(2, 5))
        hi = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        lo = np.sort(hi * 0.6 + np.full(d, 0.4 / d))[::-1]
        rare = rare_synthesis_quantum(DensityMatrix.diagonal(lo),
                                      DensityMatrix.diagonal(hi))
        sigma = random_density_matrix(d, rng)
        out = sum(w * u @ sigma.matrix @ u.conj().T for w, u in rare)
        assert float(np.trace(out @ out).real) <= sigma.purity() + 1e-9
    _report(7, "catalytic erasure", "100 mixed blocked with positive margin; "
                                    "100 pure trivial; 2-norm monotone")


def test_criterion_8_symmetric_purification():
    rng = np.random.Generator(np.random.Philox(key=808080))
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng)
        psi = symmetric_purify(rho)
        rho_a, rho_b = marginals(psi)
        assert np.max(np.abs(rho_a.matrix - rho.matrix)) <= 1e-10
        assert np.max(np.abs(rho_b.matrix - rho.matrix)) <= 1e-10
    for _ in range(200):
        da, db = (int(x) for x in rng.integers(2, 5, size=2))
        psi = random_pure_state((da, db), rng)
        rho_a, rho_b = marginals(psi)
        r = min(da, db)
        sa = np.sort(np.linalg.eigvalsh(rho_a.matrix))[::-1][:r]
        sb = np.sort(np.linalg.eigvalsh(rho_b.matrix))[::-1][:r]
        assert np.max(np.abs(sa - sb)) <= 1e-9
    _report(8, "symmetric purification", "200 + 200 instances within tolerance")


def test_criterion_9_determinism():
    cfg = TrialConfig(seed=909090, trials=25, dims=(2, 3))
    first = dump_json(run_duality_suite(cfg).to_dict(include_timing=False))
    second = dump_json(run_duality_suite(cfg).to_dict(include_timing=False))
    assert first == second
    cfg2 = TrialConfig(seed=919191, trials=100, sizes=(2, 3, 4, 5))
    third = dump_json(run_classical_agreement_suite(cfg2).to_dict(include_timing=False))
    fourth = dump_json(run_classical_agreement_suite(cfg2).to_dict(include_timing=False))
    assert third == fourth
    _report(9, "determinism", "reports byte-identical with timing excluded")
