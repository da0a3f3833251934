"""The mixedness relation: convex feasibility over group orbits.

A state sigma is *more mixed* than rho when sigma is a convex combination of
group images of rho, i.e. when some random-reversible channel degrades rho
to sigma.  Every feasible verdict comes with an explicit weight witness.
Orbits are computed in one flat product with the system's stacked group.
The orbit hull, the equally-mixed test and the invariant state solve no
LP: every group element preserves the averaged Gram form M, so an orbit
lies on one M-sphere, and the orbit itself answers them.

When the group is generated by its reflections, the relation is
G-majorization (Eaton & Perlman, Ann. Probab. 5, 829, 1977) and needs no
LP: sigma lies in the hull of rho's orbit exactly when the difference of
their dominant orbit points is a nonnegative combination of simple roots.
The classical case is S_n, where that is majorization: q lies in the
permutohedron of p exactly when p majorizes q.  One Caratheodory walk
(``_caratheodory_walk``) writes each "yes" as a mix of at most rank + 1
orbit points, with one of two vertex rules: on S_n, p in the order of the
current point (``_walk_witness``, n <= ``WALK_MAX_N``: classical
``more_mixed``, ``birkhoff_rare_synthesis`` and, on two spectra,
``quantum.rare_synthesis_quantum``); on any other reflection group
(``TheorySystem._chamber``), the orbit point on every facet the current
point lies on.  Every "no" of both carries a separating functional
checked on the orbit.  Only a group that its
reflections do not generate (a cyclic group, the half turn alone) solves
the phase-1 LP over the orbit, with the in-repo simplex.  Every system is
checked to be valid when built (``core.TheorySystem``), so each of these
answers is over a group.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import simplex
from .core import (CapacityError, Chamber, GptState, StructuralError, TheorySystem,
                   _first_hits, _images, make_classical, sums_to_one)
from .tolerances import (ATOL, FARKAS_MIN_SEPARATION, FARKAS_VIOLATION_TOL,
                         MAJORIZATION_TOL, MAX_SCALE, RESIDUAL_TOL, WITNESS_TOL,
                         ZERO_TOL)

#: the largest n the permutohedron walk takes; its subset table has 2^n - 2 rows
#: (8 MB at n = 16), and both its size and a walk's time double with each step in n
WALK_MAX_N = 16


class IllConditionedError(ValueError):
    """Input too badly scaled for a trustworthy feasibility verdict."""


@dataclass(frozen=True)
class RaReChannel:
    """Random reversible channel: weights over indices into the system group."""

    system: TheorySystem
    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not sums_to_one([w for w, _ in self.entries]):
            raise StructuralError("RaRe weights must be nonnegative and sum to 1")
        for _, k in self.entries:
            if not 0 <= k < len(self.system.group):
                raise StructuralError(f"group index {k} out of range")

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.system.dim, self.system.dim))
        for w, k in self.entries:
            out += w * self.system.group[k]
        return out

    def apply(self, rho: GptState) -> GptState:
        return GptState(self.system, self.matrix() @ rho.vec)

    def to_dict(self) -> dict:
        return {"weights": [w for w, _ in self.entries],
                "group_indices": [k for _, k in self.entries]}


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of a convex-combination feasibility query, with witness.

    A feasible verdict carries ``weights`` over the generators (for
    ``more_mixed``, the system group in order) and their rebuild
    ``residual``.  An infeasible verdict of ``more_mixed`` that solved no LP
    carries a separating ``functional``, a covector f with
    f(sigma) - max_g f(g rho) = ``gap`` > 0, sigma scaled to rho's
    unit-effect value; both are checked by one orbit scan before they are
    returned.  The LP path leaves them None.
    """

    status: str                      # "feasible" | "infeasible"
    weights: np.ndarray | None
    residual: float
    functional: np.ndarray | None = None
    gap: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def __bool__(self) -> bool:
        return self.feasible

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "weights": None if self.weights is None else [float(w) for w in self.weights],
            "residual": float(self.residual),
            "functional": None if self.functional is None else [float(f) for f in self.functional],
            "gap": None if self.gap is None else float(self.gap),
        }

    @staticmethod
    def from_dict(data: dict) -> "FeasibilityCertificate":
        w, f, gap = data.get("weights"), data.get("functional"), data.get("gap")
        return FeasibilityCertificate(
            status=data["status"],
            weights=None if w is None else np.asarray(w, dtype=float),
            residual=float(data["residual"]),
            functional=None if f is None else np.asarray(f, dtype=float),
            gap=None if gap is None else float(gap),
        )


def feasible_convex_combination(generators, target) -> FeasibilityCertificate:
    """Is ``target`` a convex combination of the ``generators``?

    ``generators`` is a ``(k, dim)`` array (or anything that converts to
    one), one generator per row.  Phase-1 LP on the equality system
    sum_i w_i g_i = target, sum_i w_i = 1, w >= 0.  A feasible certificate
    always carries weights whose max-norm reconstruction error is below
    RESIDUAL_TOL; a verdict that cannot be backed by such a witness raises
    instead of being reported.
    """
    try:
        gens = np.asarray(generators, dtype=float)
    except ValueError as exc:
        raise StructuralError("generators and target must share a dimension") from exc
    tgt = np.asarray(target, dtype=float).reshape(-1)
    if gens.ndim != 2 or gens.shape[0] == 0:
        raise StructuralError("generators must be a non-empty (k, dim) array")
    if gens.shape[1] != tgt.shape[0]:
        raise StructuralError("generators and target must share a dimension")

    g = np.ascontiguousarray(gens.T)      # generators as columns
    scale = max(np.abs(g).max(), np.abs(tgt).max(), 1.0)
    if scale > MAX_SCALE:
        raise IllConditionedError(f"input scale {scale:.2e} beyond {MAX_SCALE:.0e}")

    a = np.vstack([g, np.ones(len(gens))]) / scale
    b = np.concatenate([tgt, [1.0]]) / scale
    feasible, weights, farkas = simplex.phase1(a, b)
    if not feasible:
        # the verdict must be backed by a separating (Farkas) certificate:
        # y.col <= 0 for every generator column while y.rhs > 0
        norm = np.max(np.abs(farkas))
        if norm <= 0:
            raise IllConditionedError("infeasibility certificate is degenerate")
        y = farkas / norm
        violation = float(np.max(y @ a))
        gain = float(y @ b)
        if violation > FARKAS_VIOLATION_TOL or gain < FARKAS_MIN_SEPARATION:
            raise IllConditionedError(
                f"infeasibility certificate too weak (violation {violation:.2e}, "
                f"separation {gain:.2e}); input is numerically marginal")
        return FeasibilityCertificate("infeasible", None, float("inf"))
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    residual = float(np.max(np.abs(g @ weights - tgt)))
    if residual > RESIDUAL_TOL:
        raise IllConditionedError(
            f"feasible basis reconstructs target only to {residual:.2e}")
    return FeasibilityCertificate("feasible", weights, residual)


def _orbit(rho: GptState) -> np.ndarray:
    """The group images of rho as rows, in group order, from one flat product."""
    return _images(rho.system.group, rho.vec)


def validate_state(rho: GptState, name: str = "state") -> None:
    """Refuse a vector outside the state space, with ``StructuralError`` naming it ``name``.

    It must be normalized, and no pure effect (``TheorySystem.extremal_effects``, the facet
    functionals of the pure states' hull) may read below -ATOL on it.  No LP is solved, and
    the check is exact: the pure states of every built system span R^dim, so the facet
    functionals bound the hull on every side.
    """
    if not rho.is_normalized():
        raise StructuralError(f"{name} is not normalized (norm {rho.norm:.6f})")
    values = rho.system.extremal_effects @ rho.vec
    if (values < -ATOL).any():
        raise StructuralError(f"{name} lies outside the state space (effect {values.min():.3e})")


def more_mixed(rho: GptState, sigma: GptState) -> FeasibilityCertificate:
    """Certificate that sigma is more mixed than rho (Def.-3 relation).

    Feasible iff sigma lies in the convex hull of the group orbit of rho;
    the weights index the system group in order.  Three paths, one per
    kind of group:

    * a classical system with its full permutation group (any order of the
      elements): the orbit hull is rho's permutohedron, so the verdict is
      ``majorizes(rho, sigma)`` and the walk's S_n case (``_walk_witness``)
      gives the weights, at most n of them nonzero.  Both run on the state
      vectors as given, which the state check lets sum to one within
      ``SUM_TOL``; the weights rebuild sigma within ``WITNESS_TOL`` plus the
      gap between the two sums, or the call raises ``RuntimeError``.  A "no"
      carries the Ky Fan functional of the first partial sum that fails;
    * a group generated by its reflections (``TheorySystem._chamber``: the
      square bit, every polygon, a simplex with a reflection subgroup):
      G-majorization (Eaton & Perlman, Ann. Probab. 5, 829, 1977), decided
      from the simple-root coefficients of rho's and sigma's dominant orbit
      points, with the same walk on rho's G-permutohedron for the weights and a
      fundamental-weight functional for a "no";
    * any other group (a group that its reflections do not generate, such as
      a cyclic group): the phase-1 LP over the orbit of rho.

    The first two solve no LP, and every "no" they give carries a
    ``functional`` and ``gap`` checked by one orbit scan.
    """
    if rho.system is not sigma.system:
        raise StructuralError("states must belong to the same system")
    validate_state(rho, "rho")
    validate_state(sigma, "sigma")
    index = rho.system._permutation_index
    if index is not None:
        if not majorizes(rho.vec, sigma.vec):
            return _ky_fan_certificate(rho, sigma)
        entries, residual = _walk_witness(rho.vec, sigma.vec, index.__getitem__)
        weights = np.zeros(len(index))
        weights[[k for _, k in entries]] = [w for w, _ in entries]
        return FeasibilityCertificate("feasible", weights, residual)
    chamber = rho.system._chamber
    if chamber is None:
        return feasible_convex_combination(_orbit(rho), sigma.vec)
    return _reflection_certificate(rho, sigma, chamber)


def _separating_certificate(functional: np.ndarray, orbit: np.ndarray,
                            target: np.ndarray) -> FeasibilityCertificate:
    """An infeasible verdict with its functional, checked by one scan of rho's orbit.

    The gap is f(target) - max_g f(g rho); the call raises ``RuntimeError``
    unless it is positive.
    """
    gap = float(functional @ target - np.max(orbit @ functional))
    if not gap > 0.0:
        raise RuntimeError(f"separating functional misses sigma by {gap:.2e}")
    return FeasibilityCertificate("infeasible", None, float("inf"), functional, gap)


def _ky_fan_certificate(rho: GptState, sigma: GptState) -> FeasibilityCertificate:
    """The "no" of classical ``more_mixed``: the indicator of sigma's k largest
    entries, at the first k where sigma's partial sum (scaled to rho's total,
    as ``majorizes`` scales it) exceeds rho's by more than ``MAJORIZATION_TOL``;
    its gap is that excess."""
    p, q = rho.vec, sigma.vec
    ps = np.cumsum(np.sort(p)[::-1])
    qs = np.cumsum(np.sort(q)[::-1])
    k = int(np.argmax(ps < qs * (ps[-1] / qs[-1]) - MAJORIZATION_TOL))
    functional = np.zeros(len(q))
    functional[np.argsort(-q, kind="stable")[:k + 1]] = 1.0
    return _separating_certificate(functional, _orbit(rho), q * (rho.norm / sigma.norm))


def _reflection_certificate(rho: GptState, sigma: GptState,
                            chamber: Chamber) -> FeasibilityCertificate:
    """``more_mixed`` on a group generated by reflections, by G-majorization.

    sigma is first scaled to rho's unit-effect value.  With x_top the orbit
    point of largest <z, .>_M (the one in the dominant chamber), sigma lies
    in the hull of rho's orbit exactly when every coefficient
    c_i = <w_i, rho_top - sigma_top>_M on the fundamental weights is
    nonnegative, within ``MAJORIZATION_TOL``, and rho_top - sigma_top has no
    part off the roots' span (the group-fixed part), within ATOL.  A "no"
    carries f(v) = <w_i, h v>_M for the most negative c_i, with h sigma =
    sigma_top, and gap -c_i; or, when only the fixed parts differ, the unit
    form along their difference averaged over the group (so it reads the
    same on every orbit point), and gap its M-length.  A "yes" carries the
    weights of ``_caratheodory_walk`` on rho's G-permutohedron,
    <g w_i, x>_M <= <w_i, rho_top>_M over the rows of ``chamber.facets``, in
    r + 1 steps (r the rank of the roots).  Its vertex at x maximizes over
    the orbit the sum of the rows x is tight on (a vertex of the face they
    cut), or <x, .>_M when x is tight on none, labelled by its first group
    index.  The weights rebuild sigma within ``WITNESS_TOL`` plus
    |u.rho - u.sigma| plus the fixed part the verdict forgave, or the call
    raises ``RuntimeError``.
    """
    system = rho.system
    orbit = _orbit(rho)
    target = sigma.vec * (rho.norm / sigma.norm)
    images = _images(system.group, target)
    top = int(np.argmax(orbit @ chamber.z_form))
    h = int(np.argmax(images @ chamber.z_form))
    drop = orbit[top] - images[h]
    coeffs = chamber.weight_forms @ drop
    fixed = drop - coeffs @ chamber.simple
    if coeffs.size and coeffs.min() < -MAJORIZATION_TOL:
        functional = chamber.weight_forms[int(np.argmin(coeffs))] @ system.group[h]
        return _separating_certificate(functional, orbit, target)
    forgiven = float(np.max(np.abs(fixed)))
    if forgiven > ATOL:
        # fixed is short, so its rounding along the roots is large next to it:
        # averaging the form over the group removes that part, and the
        # functional reads the same on every orbit point
        form = np.mean((system.group_gram @ fixed) @ system.group, axis=0)
        return _separating_certificate(-form / np.sqrt(form @ fixed), orbit, target)
    facets, gram = chamber.facets, system.group_gram

    def vertex(x, tight):
        k = int(np.argmax(orbit @ (tight @ facets if tight.any() else gram @ x)))
        return k, orbit[k]

    terms = _caratheodory_walk(facets, (chamber.weight_forms @ orbit[top])[chamber.facet_weight],
                               len(chamber.simple) + 1, vertex, target + fixed)
    weights = np.zeros(len(orbit))
    weights[list(terms)] = list(terms.values())
    residual = _rebuild_residual(weights, orbit, sigma.vec,
                                 abs(rho.norm - sigma.norm) + forgiven)
    return FeasibilityCertificate("feasible", weights, residual)


def _caratheodory_walk(facets: np.ndarray, bound: np.ndarray, steps: int, vertex,
                       x: np.ndarray) -> dict:
    """Weights, one per vertex label, that mix the walk's vertices into x, over at most ``steps``.

    A Caratheodory walk on the polytope facets @ y <= bound, which holds x:
    rho's permutohedron (``_walk_witness``, steps = n) or its
    G-permutohedron (``_reflection_certificate``, steps = rank + 1).  At x,
    ``vertex(x, tight)`` returns a label and a vertex v of the polytope that
    lies on every facet x lies on (``tight``: ``left * slack`` at most
    ``ZERO_TOL``, with ``left`` the weight x still carries).  The step from v
    through x to the boundary ends at y, with lam = 1 + min slack/rise over
    the facets that limit it (``left * rise`` above ``ZERO_TOL``, and not
    tight); then x = y/lam + (1 - 1/lam) v, and y lies on one facet more
    than x.  After steps - 1 steps x is a vertex; when no facet limits a
    step, x is v up to dust and the walk stops there.  A label met twice
    keeps one summed weight.
    """
    weights: defaultdict = defaultdict(float)
    left = 1.0
    for step in range(steps):
        slack = bound - facets @ x
        tight = left * slack <= ZERO_TOL
        label, v = vertex(x, tight)
        if step == steps - 1:
            break
        rise = facets @ (x - v)
        limits = (left * rise > ZERO_TOL) & ~tight
        if not limits.any():
            break
        lam = 1.0 + np.min(slack[limits] / rise[limits])
        weights[label] += left * (1.0 - 1.0 / lam)
        left /= lam
        x = v + lam * (x - v)
    weights[label] += left
    return weights


def _rebuild_residual(weights: np.ndarray, points: np.ndarray, target: np.ndarray,
                      allowance: float) -> float:
    """How far the mix ``weights @ points`` misses ``target`` (max-norm); ``RuntimeError``
    beyond ``WITNESS_TOL`` plus ``allowance``."""
    residual = float(np.max(np.abs(weights @ points - target)))
    if not residual <= WITNESS_TOL + allowance:
        raise RuntimeError(f"mixing witness misses target by {residual:.2e}")
    return residual


def equally_mixed(rho: GptState, sigma: GptState) -> tuple[bool, np.ndarray | None]:
    """Two-way mixedness comparison, with a reversible witness.

    Returns ``(True, group[k])`` when sigma lies within ``ATOL`` of the orbit
    point of group[k] (the first such k) and rho within ``ATOL`` of some
    point of sigma's orbit, else ``(False, None)``.  No LP is solved: an
    orbit lies on one sphere of the invariant form (see ``orbit_hull``),
    and its hull meets that sphere only at the orbit, so each state is more
    mixed than the other exactly when each lies in the other's orbit.
    """
    if rho.system is not sigma.system:
        raise StructuralError("states must belong to the same system")
    validate_state(rho, "rho")
    validate_state(sigma, "sigma")
    hits = np.flatnonzero(np.max(np.abs(_orbit(rho) - sigma.vec), axis=1) <= ATOL)
    if not hits.size or not (np.max(np.abs(_orbit(sigma) - rho.vec), axis=1) <= ATOL).any():
        return False, None
    return True, rho.system.group[hits[0]]


def invariant_state(sys: TheorySystem) -> GptState:
    """The maximally mixed state: the group average of any pure state.

    chi = (1/|G|) sum_g g v is the image of a pure state v under the uniform
    RaRe channel (equal weight on every group element).  The function
    checks that every pure state has the same average (within ATOL); a
    group fixes its average.  The uniform channel is then the
    witness that chi is more mixed than every vertex, hence than every
    state, so chi is the maximum of the mixedness order.  The average and
    its checks run once per system (``TheorySystem.invariant_vector``); the
    returned state holds its own copy.
    """
    return GptState(sys, sys.invariant_vector)


def orbit_hull(rho: GptState) -> list[np.ndarray]:
    """Vertices of the convex hull of the group orbit of rho.

    The hull is exactly the set of states more mixed than rho, so the
    returned list generates that set.  Every group element h preserves the
    averaged Gram form M = mean_g g^T g (h^T M h = M), so the orbit lies on
    one M-sphere, and a sphere is strictly convex: no orbit point lies in
    the hull of the others.  The vertices are therefore the distinct orbit
    points, taken in group order by the first-hit rule within ``ATOL``
    (``_first_hits``).  No LP is solved.
    """
    validate_state(rho, "rho")
    orbit = _orbit(rho)
    return list(orbit[_first_hits(orbit, ATOL)])


def majorizes(p, q) -> bool:
    """Partial-sum majorization test: p majorizes q.

    Both must be probability vectors (``sums_to_one``).  Each is sorted
    descending, and q's partial sums are scaled to p's total, so a sum off
    one by up to ``SUM_TOL`` moves no verdict; every partial sum of p must
    then reach q's within ``MAJORIZATION_TOL``.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise StructuralError("majorization needs equal-length vectors")
    for name, v in (("p", p), ("q", q)):
        if not sums_to_one(v):
            raise StructuralError(f"{name} is not a probability vector")
    ps = np.cumsum(np.sort(p)[::-1])
    qs = np.cumsum(np.sort(q)[::-1])
    return bool(np.all(ps >= qs * (ps[-1] / qs[-1]) - MAJORIZATION_TOL))


def _check_walk_capacity(n: int) -> None:
    """Refuse n above ``WALK_MAX_N`` with ``CapacityError``: the walk's subset table has 2^n - 2 rows."""
    if n > WALK_MAX_N:
        raise CapacityError(f"the permutohedron walk supports n <= {WALK_MAX_N}, got n={n}")


@functools.cache
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The proper nonempty subsets of range(n) as 0/1 float rows, and each size less one.

    Built once per n for the permutohedron walk; both arrays are read-only.
    n above ``WALK_MAX_N`` is refused (``_check_walk_capacity``) before anything is built.
    """
    _check_walk_capacity(n)
    rows = ((np.arange(1, 2 ** n - 1)[:, None] >> np.arange(n)) & 1).astype(float)
    size_index = rows.sum(axis=1).astype(np.intp) - 1
    rows.flags.writeable = False
    size_index.flags.writeable = False
    return rows, size_index


def _walk_witness(p: np.ndarray, q: np.ndarray, index) -> tuple[list[tuple[float, int]], float]:
    """The walk's terms on p's permutohedron as (weight, index(perm)) pairs, and their residual.

    The S_n case of ``_caratheodory_walk``, on sum_S y <= (sum of the |S|
    largest p) over the subsets S of ``_subsets``, which holds q when p
    majorizes q (Rado, 1952); the vertex at x puts p in the order of x
    (stable sort).  ``index`` maps its permutation tuple to a group index:
    ``_permutation_index`` for classical ``more_mixed`` and
    ``birkhoff_rare_synthesis``, ``tuple`` for ``quantum.rare_synthesis_quantum``.
    The walk aims at q scaled to p's sum, the plane of p's permutohedron (as
    ``majorizes`` compares them); the at most n terms rebuild q within
    ``WITNESS_TOL`` plus |sum p - sum q|, or the call raises ``RuntimeError``.
    """
    n = p.shape[0]
    rows, size_index = _subsets(n)
    by_size = np.argsort(-p, kind="stable")

    def vertex(x, tight):
        perm = np.empty(n, dtype=np.intp)
        perm[np.argsort(-x, kind="stable")] = by_size
        return tuple(perm.tolist()), p[perm]

    p_sum, q_sum = p.sum(), q.sum()
    terms = _caratheodory_walk(rows, np.cumsum(np.sort(p)[::-1])[size_index], n, vertex,
                               q * (p_sum / q_sum))
    weights = np.fromiter(terms.values(), dtype=float, count=len(terms))
    residual = _rebuild_residual(weights, p[np.array(list(terms))], q, abs(p_sum - q_sum))
    return [(w, index(perm)) for perm, w in terms.items()], residual


@functools.cache
def _classical(n: int) -> TheorySystem:
    """``make_classical(n)``, built once per n; the system and its arrays are read-only."""
    return make_classical(n)


def birkhoff_rare_synthesis(p, q) -> RaReChannel:
    """Explicit RaRe channel over the permutation group mapping p to q.

    Requires that p majorizes q.  The walk's S_n case (``_walk_witness``)
    writes q as a mix of at most n permutations of p, each met once; the
    channel weighs the matching permutation matrices of make_classical(n),
    found by the index classical ``more_mixed`` uses; that system is built
    once per n, and refuses n > 6 (it stores the n! matrices).  It rebuilds q within
    ``WITNESS_TOL`` + |sum p - sum q|, or raises.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if not majorizes(p, q):
        raise StructuralError("precondition failed: p does not majorize q")
    system = _classical(p.shape[0])
    entries, _ = _walk_witness(p, q, system._permutation_index.__getitem__)
    return RaReChannel(system, tuple(sorted(entries)))
