"""Seeded cross-validation suites tying the backends together.

Each suite samples instances with a counter-based generator (Philox), so a
given TrialConfig reproduces its report byte for byte (wall time aside) on
any platform.  Counterexamples carry their full inputs and can be replayed
standalone.  Birkhoff and RaRe mixtures are checked to ``WITNESS_TOL``;
one-way protocols take their verdict from ``OneWayProtocol.verify``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import StructuralError, TheorySystem, make_classical
from .mixedness import birkhoff_rare_synthesis, feasible_convex_combination, majorizes
from .quantum import (PureBipartiteState, _rare_residual, lu_equivalent, marginals,
                      maximally_entangled, nielsen_convertible, one_way_locc_from_rare,
                      random_density_matrix, random_pure_state, rare_synthesis_quantum)
from .serialize import complex_to_pairs, pairs_to_complex
from .tolerances import MULTIPLICATIVITY_TOL, WITNESS_TOL, ZERO_TOL

#: counterexamples a suite records before it stops
COUNTEREXAMPLE_BUDGET = 10


@dataclass(frozen=True)
class TrialConfig:
    """Seed, sizes and trial counts for one suite run."""

    seed: int = 0
    trials: int = 100
    dims: tuple[int, ...] = (2, 3, 4)
    sizes: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        if self.trials < 1:
            raise StructuralError("trial count must be >= 1")
        if not 0 <= self.seed < 2 ** 128:
            raise StructuralError("seed must be in [0, 2**128)")
        if not self.dims or min(self.dims) < 1:
            raise StructuralError("dimensions must be >= 1")
        if not self.sizes or min(self.sizes) < 1:
            raise StructuralError("sizes must be >= 1")


@dataclass
class SuiteReport:
    suite: str
    trials: int
    agreements: int
    counterexamples: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    def __post_init__(self):
        if self.agreements + len(self.counterexamples) != self.trials:
            raise StructuralError("agreements + counterexamples must equal trials")

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {"suite": self.suite, "trials": self.trials,
               "agreements": self.agreements, "counterexamples": self.counterexamples}
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    @staticmethod
    def from_dict(data: dict) -> "SuiteReport":
        return SuiteReport(suite=data["suite"], trials=int(data["trials"]),
                           agreements=int(data["agreements"]),
                           counterexamples=list(data["counterexamples"]),
                           wall_time=float(data.get("wall_time", 0.0)))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _run_trials(suite: str, trials: Iterable[tuple[bool, dict | None]]) -> SuiteReport:
    """Count agreements over (ok, detail) trials; stop after COUNTEREXAMPLE_BUDGET.

    ``detail`` is None for a trial that agrees.  Trials are drawn lazily, so
    none is drawn after the budget is spent.
    """
    started = time.perf_counter()
    agreements, counterexamples = 0, []
    for ok, detail in trials:
        if ok:
            agreements += 1
            continue
        counterexamples.append(detail)
        if len(counterexamples) >= COUNTEREXAMPLE_BUDGET:
            break
    return SuiteReport(suite, agreements + len(counterexamples), agreements,
                       counterexamples, wall_time=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# duality suite
# ---------------------------------------------------------------------------

def _check_direction(psi: PureBipartiteState, target: PureBipartiteState) -> dict:
    """Compare the two sides of the duality on one ordered pair.

    Returns residual data; 'agree' is False when the convertibility verdict
    and the marginal-spectrum majorization verdict differ, when the RaRe
    witness misses WITNESS_TOL, or when the protocol fails its own verify.
    Nielsen reads each state's SVD, and so does ``spectrum()`` of its
    marginals; the marginal side takes ``eigvalsh`` of m m^dag instead.
    """
    rho = marginals(psi)[0]
    rho_t = marginals(target)[0]
    convertible = nielsen_convertible(psi, target)
    spectra_majorize = majorizes(np.linalg.eigvalsh(rho_t.matrix), np.linalg.eigvalsh(rho.matrix))
    out = {"convertible": convertible, "spectra_majorize": spectra_majorize,
           "agree": convertible == spectra_majorize}
    if convertible and out["agree"]:
        try:
            rare = rare_synthesis_quantum(rho, rho_t)
            out["rare_residual"] = _rare_residual(rare, rho_t.matrix, rho.matrix)
            protocol = one_way_locc_from_rare(psi, target, rare)
            out["completeness_residual"] = protocol.completeness_residual()
            out["outcome_residual"] = float(np.max(protocol.outcome_residuals(psi, target)))
            out["agree"] = (out["rare_residual"] <= WITNESS_TOL
                            and protocol.verify(psi, target))
        except (StructuralError, RuntimeError) as exc:
            out["agree"] = False
            out["witness_error"] = str(exc)
    return out


def _duality_pair(psi: PureBipartiteState, phi: PureBipartiteState) -> tuple[bool, dict]:
    """Check both directions of one pair; ok only when both agree."""
    forward = _check_direction(psi, phi)
    backward = _check_direction(phi, psi)
    return forward["agree"] and backward["agree"], {"forward": forward, "backward": backward}


def _duality_trials(cfg: TrialConfig):
    rng = _rng(cfg.seed)
    for d in cfg.dims:
        for trial in range(cfg.trials):
            psi = random_pure_state((d, d), rng)
            phi = random_pure_state((d, d), rng)
            ok, directions = _duality_pair(psi, phi)
            yield ok, None if ok else {"dim": d, "trial": trial,
                                       "psi": complex_to_pairs(psi.vec),
                                       "phi": complex_to_pairs(phi.vec), **directions}


def run_duality_suite(cfg: TrialConfig) -> SuiteReport:
    """Duality check: convertibility iff marginal-spectrum majorization.

    For every sampled ordered pair that is convertible, the RaRe witness
    and the one-way protocol are constructed explicitly and verified.
    """
    return _run_trials("duality", _duality_trials(cfg))


def replay_duality_counterexample(detail: dict) -> bool:
    """Recompute a serialized duality counterexample; True iff it still fails."""
    d = int(detail["dim"])
    psi = PureBipartiteState((d, d), pairs_to_complex(detail["psi"]))
    phi = PureBipartiteState((d, d), pairs_to_complex(detail["phi"]))
    ok, _ = _duality_pair(psi, phi)
    return not ok


# ---------------------------------------------------------------------------
# classical agreement suite
# ---------------------------------------------------------------------------

def _classical_trial(system: TheorySystem, p: np.ndarray, q: np.ndarray
                     ) -> tuple[bool, dict]:
    """Compare the LP verdict with majorization on one pair of distributions.

    The LP is the phase-1 orbit LP that ``more_mixed`` runs on groups that
    their reflections do not generate; classical ``more_mixed`` itself
    answers by majorization, so calling it here would compare majorization
    with itself.  Returns
    (ok, verdicts).  ok is False when the two verdicts differ, or when the
    Birkhoff witness of a comparable pair misses its target by more than
    WITNESS_TOL or cannot be built ('witness_error').
    """
    lp_verdict = feasible_convex_combination(system.group @ p, q).feasible
    maj_verdict = majorizes(p, q)
    ok = lp_verdict == maj_verdict
    verdicts = {"lp_verdict": lp_verdict, "majorizes": maj_verdict,
                "witness_residual": None}
    if ok and maj_verdict:
        try:
            channel = birkhoff_rare_synthesis(p, q)
        except (StructuralError, RuntimeError) as exc:
            return False, {**verdicts, "witness_error": str(exc)}
        residual = float(np.max(np.abs(channel.matrix() @ p - q)))
        verdicts["witness_residual"] = residual
        ok = residual <= WITNESS_TOL
    return ok, verdicts


def _classical_trials(cfg: TrialConfig):
    rng = _rng(cfg.seed)
    for n in cfg.sizes:
        system = make_classical(n)
        for trial in range(cfg.trials):
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            ok, verdicts = _classical_trial(system, p, q)
            yield ok, None if ok else {"n": n, "trial": trial, "p": p.tolist(),
                                       "q": q.tolist(), **verdicts}


def run_classical_agreement_suite(cfg: TrialConfig) -> SuiteReport:
    """The phase-1 orbit LP against partial-sum majorization, on random pairs.

    Whenever the pair is comparable, the Birkhoff witness is synthesized and
    its defining equation checked.
    """
    return _run_trials("classical-agreement", _classical_trials(cfg))


def replay_classical_counterexample(detail: dict) -> bool:
    """Recompute a serialized classical counterexample; True iff it still fails."""
    p = np.asarray(detail["p"], dtype=float)
    q = np.asarray(detail["q"], dtype=float)
    ok, _ = _classical_trial(make_classical(int(detail["n"])), p, q)
    return not ok


# ---------------------------------------------------------------------------
# maximal entanglement suite
# ---------------------------------------------------------------------------

def _maximal_entanglement_trials(cfg: TrialConfig):
    rng = _rng(cfg.seed)
    for d in cfg.dims:
        phi = maximally_entangled(d)
        for trial in range(cfg.trials):
            psi = random_pure_state((d, d), rng)
            reaches_everything = nielsen_convertible(phi, psi)
            back = nielsen_convertible(psi, phi)
            ok = reaches_everything and ((not back) or lu_equivalent(psi, phi))
            yield ok, None if ok else {"dim": d, "trial": trial,
                                       "psi": complex_to_pairs(psi.vec),
                                       "maximal_reaches_sample": reaches_everything,
                                       "sample_reaches_maximal": back}


def run_maximal_entanglement_suite(cfg: TrialConfig) -> SuiteReport:
    """Uniform-Schmidt states are maximally entangled, and reach every state.

    Per trial: the uniform state converts to the sample; the sample converts
    to the uniform state only when it is itself uniform-spectrum (checked
    via local-unitary equivalence).
    """
    return _run_trials("maximal-entanglement", _maximal_entanglement_trials(cfg))


# ---------------------------------------------------------------------------
# catalyst suite
# ---------------------------------------------------------------------------

def _catalyst_trials(cfg: TrialConfig, dims: list[int]):
    rng = _rng(cfg.seed)
    for trial in range(cfg.trials):
        d_a = int(rng.choice(dims))
        d_c = int(rng.choice(dims))
        rho = random_density_matrix(d_a, rng, rank=int(rng.integers(2, d_a + 1)))
        gamma = random_density_matrix(d_c, rng)
        joint = np.kron(rho.matrix, gamma.matrix)
        joint_purity = float(np.trace(joint @ joint).real)
        product_ok = abs(joint_purity - rho.purity() * gamma.purity()) <= MULTIPLICATIVITY_TOL
        purity_margin = gamma.purity() - joint_purity
        # lambda_max(rho x gamma) = lambda_max(rho) lambda_max(gamma), spectra descending
        ky_fan_margin = float(gamma.spectrum()[0] * (1.0 - rho.spectrum()[0]))
        ok = product_ok and purity_margin > ZERO_TOL and ky_fan_margin > ZERO_TOL
        yield ok, None if ok else {"trial": trial, "rho": complex_to_pairs(rho.matrix),
                                   "gamma": complex_to_pairs(gamma.matrix),
                                   "purity_margin": purity_margin,
                                   "ky_fan_margin": ky_fan_margin,
                                   "product_ok": product_ok}


def run_catalyst_suite(cfg: TrialConfig) -> SuiteReport:
    """Catalytic erasure is blocked, by two exact witnesses per trial.

    Per trial: random mixed rho and random catalyst gamma.  Erasure would
    take rho x gamma to (pure) x gamma, and RaRe raises neither the 2-norm
    nor the largest eigenvalue, so both margins must be positive: the
    multiplicative 2-norm margin Tr(gamma^2) - Tr((rho x gamma)^2) and the
    Ky Fan margin lambda_max(gamma) (1 - lambda_max(rho)).  Dimensions are
    drawn from the configured ones in 2..4; a config with none is refused.
    """
    dims = [d for d in cfg.dims if 2 <= d <= 4]
    if not dims:
        raise StructuralError("the catalyst suite needs a dimension in 2..4")
    return _run_trials("catalyst", _catalyst_trials(cfg, dims))
