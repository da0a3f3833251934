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
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import simplex
from .core import GptState, Measurement, StructuralError, TheorySystem, sums_to_one
from .mixedness import RaReChannel, _require_state
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
    _require_state(rho, "rho")
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
        vals, vecs = rho._eig_desc
        witness = {"type": "projective-eigenbasis",
                   "basis": [vecs[:, k].tolist() for k in range(vecs.shape[1])]}
        return MonotoneReport("measurement-entropy", _entropy_bits(vals), witness)
    report = f_purity(rho, ConvexScalarFn.xlogx())
    return MonotoneReport("measurement-entropy", -report.value, report.witness)


# keyed weakly, so an entry goes with its system; the values hold no
# reference to the system, which would keep the key alive
_effect_lp_cache: weakref.WeakKeyDictionary[TheorySystem, tuple] = weakref.WeakKeyDictionary()


def _effect_lp(system: TheorySystem):
    """Equality form of the effect-polytope constraints 0 <= a(v) <= 1.

    Variables are [a+, a-, s, t] with a = a+ - a-; the slack columns give a
    feasible starting basis for phase-2 directly.
    """
    if system in _effect_lp_cache:
        return _effect_lp_cache[system]
    d = system.dim
    verts = np.column_stack(system.pure_states)   # d x V
    nv = verts.shape[1]
    a = np.zeros((2 * nv, 2 * d + 2 * nv))
    a[:nv, :d] = verts.T
    a[:nv, d:2 * d] = -verts.T
    a[:nv, 2 * d:2 * d + nv] = np.eye(nv)
    a[nv:, :d] = -verts.T
    a[nv:, d:2 * d] = verts.T
    a[nv:, 2 * d + nv:] = np.eye(nv)
    b = np.concatenate([np.ones(nv), np.zeros(nv)])
    basis = list(range(2 * d, 2 * d + 2 * nv))
    _effect_lp_cache[system] = (a, b, basis)
    return a, b, basis


def _optimize_effect(system: TheorySystem, delta: np.ndarray, maximize: bool
                     ) -> tuple[float, np.ndarray]:
    a, b, basis = _effect_lp(system)
    d = system.dim
    c = np.zeros(a.shape[1])
    c[:d] = -delta if maximize else delta
    c[d:2 * d] = delta if maximize else -delta
    try:
        x, objective = simplex.solve(a, b, c, basis)
    except simplex.UnboundedError as exc:
        raise UnsupportedSystemError(
            "effect polytope is unbounded; pure states do not span the state space"
        ) from exc
    covec = x[:d] - x[d:2 * d]
    value = float(delta @ covec)
    return value, covec


def op_norm_distance(rho: GptState) -> float:
    """Half the operational-norm distance from the invariant state.

    The norm of delta = rho - chi is sup (a|delta) - inf (a|delta) with a
    ranging over the effect polytope E = {a : 0 <= a(v) <= 1 on every pure
    state v}.  The sup is one linear program over those constraints; the inf
    follows from it (see ``op_norm_report``), so the value is
    sup (a|delta) - (u|delta) / 2.
    """
    return op_norm_report(rho).value


def op_norm_report(rho: GptState) -> MonotoneReport:
    """op_norm_distance together with the optimizing effect pair.

    Only the sup is solved.  The map a -> u - a (u the unit effect) sends E
    onto itself whenever u(v) = 1 on every pure state, which
    ``validate_system`` checks and the state check asks of every state; it
    is its own inverse, so it is a bijection of E.  Hence inf (a|delta) =
    (u|delta) - sup (a|delta), attained by ``inf_effect = u - sup_effect``,
    the exact complement of the sup witness.  Pure states that do not span
    the space leave E unbounded and raise ``UnsupportedSystemError``.
    """
    _require_state(rho, "rho")
    system = rho.system
    delta = rho.vec - system.invariant_vector
    hi, top = _optimize_effect(system, delta, maximize=True)
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
    _require_state(rho, "rho")
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
