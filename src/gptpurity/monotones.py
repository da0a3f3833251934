"""Purity monotones: f-purities, measurement entropy, norm-based measures.

An f-purity is the supremum of sum_x f(p_x) over pure measurements, where
p_x are the outcome probabilities.  For convex f with f(0) = 0 the sum is
convex in the weights of a measurement built from the pure effects, so the
supremum is attained at a vertex of that measurement polytope (Rockafellar,
Convex Analysis, Cor. 32.3.2).  ``TheorySystem.pure_measurements`` lists
those vertices, which makes the maximum below exact.  Quantum states use
the eigenbasis measurement, which is optimal there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import GptState, Measurement, StructuralError, TheorySystem, sums_to_one
from .mixedness import RaReChannel, validate_state
from .quantum import DensityMatrix, _entropy_bits
from .tolerances import CONVEXITY_TOL, MAX_GRAM_CONDITION, MONOTONE_TOL


class UnsupportedSystemError(ValueError):
    """The system lacks the structure the monotone needs."""


@dataclass(frozen=True)
class ConvexScalarFn:
    """A function on [0, 1] used to build an f-purity.

    By convention the evaluator is finite at 0 (x log x is extended by 0);
    f-purities additionally require f(0) = 0.  ``convex`` is not an
    argument: the constructor sets it by probing midpoint convexity on a
    41-point grid of [0, 1].  The builtins ``xlogx()`` and ``square()`` are
    built, and probed, once.
    """

    tag: str
    evaluator: Callable[[float], float]
    convex: bool = field(init=False)

    def __post_init__(self):
        f = self.evaluator
        convex = all(f((a + b) / 2) <= (f(a) + f(b)) / 2 + CONVEXITY_TOL
                     for a, b in itertools.combinations(np.linspace(0.0, 1.0, 41), 2))
        object.__setattr__(self, "convex", convex)

    def __call__(self, x: float) -> float:
        return self.evaluator(x)

    @staticmethod
    @functools.cache
    def xlogx() -> "ConvexScalarFn":
        def f(x: float) -> float:
            return 0.0 if x <= 0.0 else x * np.log2(x)
        return ConvexScalarFn("xlogx", f)

    @staticmethod
    @functools.cache
    def square() -> "ConvexScalarFn":
        return ConvexScalarFn("square", lambda x: x * x)


@dataclass(frozen=True)
class MonotoneReport:
    """A monotone value with the measurement (or effect pair) attaining it."""

    name: str
    value: float
    witness: object

    def to_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, Measurement):
            witness = {"type": "measurement",
                       "effects": [a.covec.tolist() for a in witness.effects]}
        return {"name": self.name, "value": float(self.value), "witness": witness}


# ---------------------------------------------------------------------------
# monotones
# ---------------------------------------------------------------------------

def f_purity(rho: GptState, f: ConvexScalarFn) -> MonotoneReport:
    """Maximize sum_x f(p_x) over pure measurements, exactly.

    The maximum runs over the vertices of the measurement polytope
    (``system.pure_measurements``), which is exact when f is convex with
    f(0) = 0; any other f raises ``ValueError``.
    """
    if not f.convex or f(0.0) != 0.0:
        raise ValueError(f"the {f.tag}-purity needs a convex f with f(0) = 0")
    validate_state(rho, "rho")
    measurements = rho.system.pure_measurements
    if not measurements:
        raise UnsupportedSystemError("no pure measurements available for this system")
    values = [float(sum(f(p) for p in meas.outcome_probs(rho))) for meas in measurements]
    best = int(np.argmax(values))
    return MonotoneReport(f"{f.tag}-purity", values[best], measurements[best])


def measurement_entropy(rho) -> MonotoneReport:
    """Minimum Shannon entropy (bits) over pure measurements.

    Quantum states use the eigenvalue spectrum with the eigenbasis
    projective measurement as witness; GPT states minimize over the
    vertices of the measurement polytope (classical systems reduce to the
    fine-grained distribution).
    """
    if isinstance(rho, DensityMatrix):
        if not sums_to_one(rho.trace):
            raise StructuralError("measurement_entropy requires a normalized state")
        vals, vecs = rho._eigenvalues, rho._eigenvectors
        witness = {"type": "projective-eigenbasis",
                   "basis": [vecs[:, k].tolist() for k in range(vecs.shape[1])]}
        return MonotoneReport("measurement-entropy", _entropy_bits(vals), witness)
    report = f_purity(rho, ConvexScalarFn.xlogx())
    return MonotoneReport("measurement-entropy", -report.value, report.witness)


def op_norm_distance(rho: GptState) -> float:
    """Half the operational-norm distance from the invariant state.

    The operational norm of delta = rho - chi is sup (a|delta) - inf (a|delta)
    with a ranging over the effect polytope E, so half of it is the largest
    total-variation distance that any measurement finds between rho and chi
    (Kimura, Nuida & Imai, Rep. Math. Phys. 66, 175 (2010)).  It is computed
    from the pure measurements; see ``op_norm_report``.
    """
    return op_norm_report(rho).value


def op_norm_report(rho: GptState) -> MonotoneReport:
    """op_norm_distance together with the optimizing effect pair.

    The sup of (a|delta) over E is the maximum over the pure measurements M
    (``system.pure_measurements``) of sum_{a in M} max(0, (a|delta)).  Any
    a in E and u - a (u the unit effect) split into pure effects, which
    together form a measurement, so (a|delta) is at most that sum over it;
    the sum is linear in the measurement's weights, so a vertex of the
    measurement polytope does at least as well.  Conversely the effects of a
    measurement with (a|delta) > 0 add up to an effect in E: for the best
    vertex this is the witness ``sup_effect``.  This is exact: the pure
    effects are every facet functional of the pure states' hull
    (``TheorySystem.extremal_effects``).  The map a -> u - a sends E onto
    itself when u(v) = 1 on every pure state, so inf (a|delta) = (u|delta) -
    sup (a|delta), attained by ``inf_effect = u - sup_effect``.  E is bounded,
    since the pure states of every built system span the space.  A system
    with no pure measurement has no witness; it raises
    ``UnsupportedSystemError``.
    """
    validate_state(rho, "rho")
    system = rho.system
    stack = system._measurement_stack
    if not len(stack):
        raise UnsupportedSystemError("no pure measurements available for this system")
    delta = rho.vec - system.invariant_vector
    gains = stack @ delta
    best = int(np.argmax(np.maximum(gains, 0.0).sum(axis=1)))
    top = stack[best][gains[best] > 0.0].sum(axis=0)
    hi = float(top @ delta)
    lo = float(system.unit_effect @ delta) - hi
    witness = {"type": "effect-pair", "sup_effect": top.tolist(),
               "inf_effect": (system.unit_effect - top).tolist()}
    return MonotoneReport("op-norm-distance", 0.5 * (hi - lo), witness)


def purity_2norm(rho) -> float:
    """Squared invariant 2-norm of the state.

    Quantum: Tr(rho^2).  Classical: sum p_i^2.  Other systems: v^T Q v with
    Q the group-averaged Gram form, provided Q is well conditioned; its
    condition number is computed once per system.  A GPT state outside the
    state space is refused.
    """
    if isinstance(rho, DensityMatrix):
        return rho.purity()
    validate_state(rho, "rho")
    if rho.system._gram_condition > MAX_GRAM_CONDITION:
        raise UnsupportedSystemError(
            "group-averaged quadratic form is degenerate; 2-norm purity unsupported")
    return float(rho.vec @ rho.system.group_gram @ rho.vec)


@dataclass
class SchurCheckReport:
    """Outcome of randomized monotonicity checking for a candidate monotone."""

    monotone: str
    trials: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"monotone": self.monotone, "trials": self.trials,
                "violations": self.violations}


def _as_value(p_out) -> float:
    return p_out.value if isinstance(p_out, MonotoneReport) else float(p_out)


def schur_convexity_check(monotone: Callable[[GptState], float],
                          system: TheorySystem, trials: int, seed: int,
                          name: str = "monotone") -> SchurCheckReport:
    """Sample RaRe degradations and test P(rho) >= P(sigma).

    Each trial draws a random mixture of vertices and a random reversible
    mixture, and compares the monotone before and after; a rise above
    ``MONOTONE_TOL`` is a violation.  Violations are reported with full
    witnesses, not raised.
    """
    rng = np.random.default_rng(seed)
    report = SchurCheckReport(name, trials)
    vertices = list(system.pure_states)
    n_group = len(system.group)
    for _ in range(trials):
        mix = rng.dirichlet(np.ones(len(vertices)))
        rho = GptState(system, sum(w * v for w, v in zip(mix, vertices)))
        weights = rng.dirichlet(np.ones(min(n_group, 4)))
        picks = rng.choice(n_group, size=weights.size, replace=False)
        channel = RaReChannel(system, tuple((float(w), int(k))
                                            for w, k in zip(weights, picks)))
        sigma = channel.apply(rho)
        p_rho = _as_value(monotone(rho))
        p_sigma = _as_value(monotone(sigma))
        if p_rho < p_sigma - MONOTONE_TOL:
            report.violations.append({
                "rho": rho.vec.tolist(),
                "weights": weights.tolist(),
                "group_indices": [int(k) for k in picks],
                "value_before": p_rho,
                "value_after": p_sigma,
            })
    return report


def builtin_monotones() -> dict[str, Callable[[GptState], float]]:
    """The four built-in purity monotones, as plain callables on a state of any system."""
    f2, flog = ConvexScalarFn.square(), ConvexScalarFn.xlogx()
    return {
        "x2-purity": lambda s: f_purity(s, f2).value,
        "xlogx-purity": lambda s: f_purity(s, flog).value,
        "op-norm-distance": op_norm_distance,
        "2-norm-purity": purity_2norm,
    }
