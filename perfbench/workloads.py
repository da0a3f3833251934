"""The benchmark workloads: seeded inputs, the op mix, and each op's check.

A workload is set up once (systems, boxes) and then yields *rounds*: a
fixed mix of freshly generated operations.  The runner issues the ops of a
round one at a time (closed loop, one client, one op in flight) and runs
whole rounds, so every run sees the stated mix.  Inputs come only from the
seeded generator handed in; gptpurity receives nothing but the inputs.

Ops call the package only through README-documented public functions with
their default arguments, looked up on the package at call time so the
tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import checks
from checks import require


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], dict | None]   # raises CheckFailed; may return gauges
    tag: dict = field(default_factory=dict)


class Workload:
    #: one line on what the workload exercises and why it was chosen
    why = ""
    #: layers the workload never touches
    bypasses: tuple[str, ...] = ()
    #: the public functions its ops and set-up call
    calls: tuple[str, ...] = ()
    #: the ops of one round
    mix = ""
    #: the parts of the host-speed probe (worker.probe) that match its work
    probe = ("fraction", "lapack")

    def __init__(self, gp, rng: np.random.Generator):
        self.gp = gp
        self.rng = rng

    def setup(self) -> None:
        """Build and validate what every round reuses."""

    def round(self) -> list[Op]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> dict:
        return {"closed_loop": "1 client, 1 op in flight, whole rounds until --seconds",
                "mix": cls.mix, "why": cls.why, "bypasses": list(cls.bypasses),
                "calls": list(cls.calls)}


# ---------------------------------------------------------------------------
# duality: the paper's central claim on random pure-state pairs
# ---------------------------------------------------------------------------

class Duality(Workload):
    why = ("the purity / pure-state-entanglement duality, the paper's central claim: "
           "quantum linear algebra, Birkhoff at n <= 4")
    bypasses = ("simplex", "monotones", "boxworld", "EoF optimizer")
    calls = ("marginals", "nielsen_convertible", "majorizes", "rare_synthesis_quantum",
             "one_way_locc_from_rare", "OneWayProtocol.verify")
    mix = ("one random d x d pure-state pair for each d in {2, 3, 4}, both directions; "
           "each convertible direction builds and verifies the RaRe witness and protocol")

    def _pure(self, d: int) -> np.ndarray:
        v = self.rng.normal(size=d * d) + 1j * self.rng.normal(size=d * d)
        return v / np.linalg.norm(v)

    def _pair(self, psi, phi):
        gp = self.gp
        out = []
        for a, b in ((psi, phi), (phi, psi)):
            rho, rho_t = gp.marginals(a)[0], gp.marginals(b)[0]
            convertible = gp.nielsen_convertible(a, b)
            if convertible != gp.majorizes(rho_t.spectrum(), rho.spectrum()):
                raise RuntimeError("Nielsen verdict and marginal majorization disagree")
            if convertible:
                rare = gp.rare_synthesis_quantum(rho, rho_t)
                protocol = gp.one_way_locc_from_rare(a, b, rare)
                out.append((True, rare, protocol, protocol.verify(a, b)))
            else:
                out.append((False, None, None, None))
        return out

    @staticmethod
    def _check(d, v, w, out):
        checks.check_direction(v, w, d, out[0])
        checks.check_direction(w, v, d, out[1])

    def round(self):
        ops = []
        for d in (2, 3, 4):
            v, w = self._pure(d), self._pure(d)
            psi = self.gp.PureBipartiteState((d, d), v)
            phi = self.gp.PureBipartiteState((d, d), w)
            ops.append(Op(f"pair/d{d}", partial(self._pair, psi, phi),
                          partial(self._check, d, v, w), {"d": d}))
        return ops


# ---------------------------------------------------------------------------
# eof: the convex-roof optimizer
# ---------------------------------------------------------------------------

class Eof(Workload):
    why = ("entanglement of formation, 70% of Tier-1 time and the target of ROADMAP "
           "item 2; rank-1 states return at once, so median and tail separate")
    bypasses = ("simplex", "mixedness", "monotones", "boxworld")
    calls = ("entanglement_of_formation",)
    mix = ("three seeded two-qubit density matrices, of ranks 1, 1 and 3, drawn as in "
           "acceptance criterion 6 (Gaussian g g^dag / trace): the median is the rank-1 "
           "path, the tail the optimizer; ranks 2 and 4 run in the eof-probe, as their "
           "costs vary too much between states for a steady 20-s run")
    ranks = (1, 1, 3)

    def _density(self, rank: int) -> np.ndarray:
        g = self.rng.normal(size=(4, rank)) + 1j * self.rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    @staticmethod
    def _check(rank, rho, value):
        return {f"eof.max_gap_rank{rank}": checks.check_eof(rho, value)}

    def round(self):
        ops = []
        for rank in self.ranks:
            rho = self._density(rank)
            dm = self.gp.DensityMatrix(rho)
            ops.append(Op(f"eof/rank{rank}", partial(self.gp.entanglement_of_formation, dm),
                          partial(self._check, rank, rho), {"rank": rank}))
        return ops


# ---------------------------------------------------------------------------
# polytope: GPT mixedness and monotones, no quantum code
# ---------------------------------------------------------------------------

def pentagon_dict() -> dict:
    """The regular pentagon bit with its dihedral group of order 10."""
    angles = 2 * np.pi * np.arange(5) / 5
    vertices = [[np.cos(t), np.sin(t), 1.0] for t in angles]
    effects = []
    for k in range(5):
        mid = (angles[k] + angles[(k + 1) % 5]) / 2
        raw = np.array([np.cos(mid), np.sin(mid), 0.0])
        values = [raw @ v for v in vertices]
        edge = (raw - np.array([0.0, 0.0, min(values)])) / (max(values) - min(values))
        effects += [edge.tolist(), (np.array([0.0, 0.0, 1.0]) - edge).tolist()]
    effects += [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    group = []
    for t in angles:
        rot = np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])
        group += [rot.tolist(), (rot @ np.diag([1.0, -1.0, 1.0])).tolist()]
    return {"dim": 3, "unit_effect": [0.0, 0.0, 1.0], "pure_states": vertices,
            "extremal_effects": effects, "group": group, "name": "pentagon-bit"}


def _check_centroid(vertices, state):
    miss = float(np.max(np.abs(state.vec - np.mean(vertices, axis=0))))
    require(miss <= checks.VALUE_TOL, f"invariant state is {miss:.2e} from the centroid")


def _check_entropy(vertices, unit, rho, bound, report):
    probs = checks.witness_probs(report.witness, vertices, unit, rho)
    checks.check_close(report.value, checks.shannon_bits(probs), "entropy vs witness")
    require(report.value <= bound + checks.VALUE_TOL,
            f"entropy {report.value:.12g} above the reference measurement's {bound:.12g}")


def _check_square_purity(vertices, unit, rho, bound, report):
    probs = checks.witness_probs(report.witness, vertices, unit, rho)
    checks.check_close(report.value, float(np.sum(probs ** 2)), "x2-purity vs witness")
    require(report.value >= bound - checks.VALUE_TOL,
            f"x2-purity {report.value:.12g} below the reference measurement's {bound:.12g}")


class Polytope(Workload):
    why = ("GPT mixedness and monotones: simplex LPs up to 720 columns, the group layer, "
           "Birkhoff's n! scan, measurement enumeration; targets of ROADMAP items 3-5")
    bypasses = ("quantum", "boxworld")
    calls = ("make_classical", "make_square_bit", "system_from_dict", "validate_system",
             "more_mixed", "orbit_hull", "invariant_state", "birkhoff_rare_synthesis",
             "measurement_entropy", "f_purity", "op_norm_distance", "purity_2norm")
    mix = ("per system (classical-3..6, square bit, pentagon bit): more_mixed on a random "
           "pair and on a pair built as a RaRe image, orbit_hull, invariant_state, "
           "op_norm_distance, purity_2norm, and except on the pentagon measurement_entropy "
           "and f_purity(x^2); then birkhoff_rare_synthesis at n = 5 and 6. Classical-6 "
           "hulls use states with pairwise-equal entries (90-point orbits): a generic "
           "720-point orbit hull takes over 5 s")

    def setup(self):
        gp = self.gp
        self.systems = {}
        for n in (3, 4, 5, 6):
            self.systems[f"classical-{n}"] = gp.make_classical(n)
        self.systems["square-bit"] = gp.make_square_bit()
        for name, system in self.systems.items():
            report = gp.validate_system(system)
            require(report == [], f"{name} fails validation: {report}")
        self.systems["pentagon"] = gp.system_from_dict(pentagon_dict())

    def _mixture(self, vertices, weights=None):
        weights = self.rng.dirichlet(np.ones(len(vertices))) if weights is None else weights
        return weights @ np.asarray(vertices)

    def _system_ops(self, name, system):
        gp, rng = self.gp, self.rng
        classical = name.startswith("classical")
        vertices = list(system.pure_states)
        unit = system.unit_effect
        group = system.group
        rho = self._mixture(vertices)
        random_sigma = self._mixture(vertices)
        picks = rng.choice(len(group), size=min(4, len(group)), replace=False)
        rare_sigma = self._mixture([group[k] @ rho for k in picks],
                                   rng.dirichlet(np.ones(len(picks))))
        hull_rho = rho
        if name == "classical-6":
            vals = rng.dirichlet(np.ones(3))
            hull_rho = rng.permutation(np.repeat(vals / 2, 2))
        s = system.state
        ops = [
            Op(f"more_mixed/{name}", partial(gp.more_mixed, s(rho), s(random_sigma)),
               partial(checks.check_more_mixed, group, rho, random_sigma, classical=classical)),
            Op(f"more_mixed/{name}", partial(gp.more_mixed, s(rho), s(rare_sigma)),
               partial(checks.check_more_mixed, group, rho, rare_sigma, classical=classical)),
            Op(f"orbit_hull/{name}", partial(gp.orbit_hull, s(hull_rho)),
               partial(checks.check_orbit_hull, group, hull_rho)),
            Op(f"invariant_state/{name}", partial(gp.invariant_state, system),
               partial(_check_centroid, vertices)),
        ]
        x, y = rho[0], rho[1]
        if classical:
            op_norm = 0.5 * float(np.sum(np.abs(rho - 1.0 / len(rho))))
            purity = float(np.sum(rho ** 2))
        else:
            op_norm = (0.5 * max(abs(x), abs(y)) if name == "square-bit"
                       else checks.op_norm_lp(vertices, rho - np.mean(vertices, axis=0)))
            purity = x * x + y * y + 1.0      # the group acts orthogonally on (x, y)
        ops += [
            Op(f"op_norm_distance/{name}", partial(gp.op_norm_distance, s(rho)),
               partial(checks.check_close, expected=op_norm, what="op_norm_distance")),
            Op(f"purity_2norm/{name}", partial(gp.purity_2norm, s(rho)),
               partial(checks.check_close, expected=purity, what="purity_2norm")),
        ]
        if name == "pentagon":
            return ops
        if classical:
            check_entropy = partial(self._check_classical_entropy, rho)
            check_square = partial(self._check_classical_square, rho)
        else:
            facet = [((1 + x) / 2, (1 - x) / 2), ((1 + y) / 2, (1 - y) / 2)]
            check_entropy = partial(_check_entropy, vertices, unit, rho,
                                    min(checks.shannon_bits(p) for p in facet))
            check_square = partial(_check_square_purity, vertices, unit, rho,
                                   max(float(np.sum(np.square(p))) for p in facet))
        ops += [
            Op(f"measurement_entropy/{name}", partial(gp.measurement_entropy, s(rho)),
               check_entropy),
            Op(f"f_purity/{name}", partial(gp.f_purity, s(rho), gp.ConvexScalarFn.square()),
               check_square),
        ]
        return ops

    @staticmethod
    def _check_classical_entropy(p, report):
        checks.check_close(report.value, checks.shannon_bits(p), "measurement_entropy")

    @staticmethod
    def _check_classical_square(p, report):
        checks.check_close(report.value, float(np.sum(p ** 2)), "x2-purity")

    def _birkhoff_op(self, n):
        p = self.rng.dirichlet(np.ones(n))
        lam = self.rng.dirichlet(np.ones(3))
        q = sum(w * p[self.rng.permutation(n)] for w in lam)
        return Op(f"birkhoff/n{n}", partial(self.gp.birkhoff_rare_synthesis, p, q),
                  partial(checks.check_birkhoff, p, q), {"n": n})

    def round(self):
        ops = []
        for name, system in self.systems.items():
            ops += self._system_ops(name, system)
        return ops + [self._birkhoff_op(5), self._birkhoff_op(6)]


# ---------------------------------------------------------------------------
# boxworld: exact Fraction arithmetic and backtracking
# ---------------------------------------------------------------------------

def _prk(k: int):
    """b - a = xy mod k, with k outcomes per side."""
    return lambda a, b, x, y: Fraction(1, k) if (b - a) % k == (x * y) % k else Fraction(0)


def _lopsided(k: int):
    """An extreme box that no local relabeling maps onto its party swap: a
    k-outcome PR correlation on settings {0, 1}, Alice's setting 2 outputs 0,
    and Bob's setting 2 repeats his setting 0."""
    def fn(a, b, x, y):
        if x == 2:
            return Fraction(1, k) if a == 0 else Fraction(0)
        return Fraction(1, k) if (b - a) % k == (x * (0 if y == 2 else y)) % k else Fraction(0)
    return fn


class Boxworld(Workload):
    why = ("exact no-signalling boxes: Fraction arithmetic and backtracking with no numpy, "
           "bypassed by every other workload")
    bypasses = ("simplex", "mixedness", "monotones", "quantum")
    probe = ("fraction",)
    calls = ("pr_box_k", "BoxState.from_function", "BoxState.validate", "is_extreme",
             "check_local_exchangeability")
    mix = ("PR-k boxes for k = 2..5 on 2 and 3 settings, as built and (except k = 5 on 3 "
           "settings, whose relabeled search takes ~0.8 s) under a seeded random local "
           "relabeling, and 3 relabeled lopsided extreme boxes (k = 2..4; no exchange "
           "exists): validate, is_extreme, check_local_exchangeability; plus 4 mixtures of "
           "a PR-k box with a deterministic box: validate, is_extreme")

    def setup(self):
        gp = self.gp
        self.exchangeable = [gp.pr_box_k(k, k, k) for k in (2, 3, 4, 5)]
        self.exchangeable += [gp.BoxState.from_function(3, 3, k, k, _prk(k))
                              for k in (2, 3, 4, 5)]
        self.lopsided = [gp.BoxState.from_function(3, 3, k, k, _lopsided(k)) for k in (2, 3, 4)]
        for box in self.exchangeable + self.lopsided:
            require(checks.is_no_signalling(checks.table_of(box)), "input box is not no-signalling")

    def _relabeled(self, box):
        t = checks.table_of(box)
        for side, n, d in (("A", box.n_x, box.d_a), ("B", box.n_y, box.d_b)):
            t = checks.relabel(t, side, tuple(self.rng.permutation(n)),
                               [tuple(self.rng.permutation(d)) for _ in range(n)])
        return self.gp.BoxState.from_function(box.n_x, box.n_y, box.d_a, box.d_b,
                                              lambda a, b, x, y: t[a][b][x][y])

    def _mixture(self, box):
        lam = Fraction(int(self.rng.integers(1, 8)), 8)
        return self.gp.BoxState.from_function(
            box.n_x, box.n_y, box.d_a, box.d_b,
            lambda a, b, x, y: lam * box.table[a][b][x][y] + (1 - lam) * (a == 0 and b == 0))

    @staticmethod
    def _check_valid(t, report):
        require(report == [] and checks.is_no_signalling(t), f"validate reported {report}")

    @staticmethod
    def _check_extreme(t, verdict):
        expected = checks.is_extreme(t)
        require(verdict == expected, f"is_extreme says {verdict}, rank test says {expected}")

    def _ops(self, box, name, exchange=True):
        gp = self.gp
        t = checks.table_of(box)
        ops = [Op(f"validate/{name}", box.validate, partial(self._check_valid, t)),
               Op(f"is_extreme/{name}", partial(gp.is_extreme, box), partial(self._check_extreme, t))]
        if exchange:
            ops.append(Op(f"check_local_exchangeability/{name}",
                          partial(gp.check_local_exchangeability, box),
                          partial(checks.check_exchange, t)))
        return ops

    def round(self):
        ops = []
        for box in self.exchangeable:
            name = f"prk{box.d_a}-{box.n_x}set"
            ops += self._ops(box, name)
            if box.n_x * box.d_a < 15:
                ops += self._ops(self._relabeled(box), name + "-relabeled")
        for box in self.lopsided:
            ops += self._ops(self._relabeled(box), f"lopsided{box.d_a}")
        for box in self.exchangeable[:4]:
            ops += self._ops(self._mixture(box), f"mixture{box.d_a}", exchange=False)
        return ops


# ---------------------------------------------------------------------------
# defects: inputs that hit known defects; reported, never gated
# ---------------------------------------------------------------------------

class Defects(Workload):
    why = ("known defects kept visible: more_mixed on pairs 1e-11..1e-9 outside the orbit "
           "hull (IllConditionedError) and pentagon f-purities (EnumerationBoundExceeded)")
    bypasses = ("quantum", "boxworld")
    calls = ("make_classical", "system_from_dict", "more_mixed", "measurement_entropy",
             "f_purity")
    mix = ("per classical-3..6, two pairs with sigma placed 1e-11..1e-9 outside the orbit "
           "hull of rho (expected: infeasible) and one control pair 1e-6 outside; measurement_entropy and f_purity(x^2) on a "
           "random pentagon-bit state")

    def setup(self):
        self.classical = [self.gp.make_classical(n) for n in (3, 4, 5, 6)]
        self.pentagon = self.gp.system_from_dict(pentagon_dict())

    @staticmethod
    def _check_outside(group, p, q, cert):
        """sigma lies outside the hull, but within the solver's 1e-8 witness
        tolerance of it: infeasible is right, and so is feasible with weights
        that rebuild sigma to that tolerance."""
        if cert.feasible:
            checks.check_weights(group, p, q, cert)

    def _near_hull(self, system, exponents=(-11, -9)):
        n = system.dim
        p = self.rng.dirichlet(np.ones(n))
        q = np.sort(p)[::-1]
        gap = 10.0 ** self.rng.uniform(*exponents)
        q[0] += gap          # the top partial sum of q now exceeds p's by gap
        q[-1] -= gap
        q = self.rng.permutation(q)
        return Op(f"near_hull/classical-{n}",
                  partial(self.gp.more_mixed, system.state(p), system.state(q)),
                  partial(self._check_outside, system.group, p, q))

    def round(self):
        ops = [self._near_hull(system) for system in self.classical for _ in range(2)]
        # controls that must pass: the same construction 1e-6 outside the hull
        ops += [self._near_hull(system, (-6, -6)) for system in self.classical]
        vertices = list(self.pentagon.pure_states)
        unit = self.pentagon.unit_effect
        rho = self.rng.dirichlet(np.ones(5)) @ np.asarray(vertices)
        state = self.pentagon.state(rho)
        ops += [
            Op("measurement_entropy/pentagon", partial(self.gp.measurement_entropy, state),
               partial(_check_entropy, vertices, unit, rho, np.inf)),
            Op("f_purity/pentagon", partial(self.gp.f_purity, state, self.gp.ConvexScalarFn.square()),
               partial(_check_square_purity, vertices, unit, rho, 0.0)),
        ]
        return ops


class EofProbe(Eof):
    why = ("ranks 2 and 4 of entanglement of formation: rank-4 states cost 0.5-2.6 s each "
           "and rank-2 costs vary 5x, so they are reported, not gated")
    mix = "one seeded two-qubit density matrix of each rank 2 and 4, drawn as in criterion 6"
    ranks = (2, 4)


WORKLOADS = {"duality": Duality, "eof": Eof, "eof-probe": EofProbe, "polytope": Polytope, "boxworld": Boxworld,
             "defects": Defects}
