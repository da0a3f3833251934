"""The mixedness relation: convex feasibility over group orbits.

A state sigma is *more mixed* than rho when sigma is a convex combination of
group images of rho, i.e. when some random-reversible channel degrades rho
to sigma.  Deciding the relation is a small linear feasibility problem over
the orbit, solved by the in-repo simplex; every feasible verdict comes with
an explicit weight witness.  Orbits are computed in one batched product
with the system's stacked group.  The orbit hull, the equally-mixed test
and the invariant state solve no LP: every group element preserves the
averaged Gram form M, so an orbit lies on one M-sphere, and the orbit
itself answers them.

The classical case reduces to majorization and needs no LP: q lies in
the permutohedron of p (the hull of p's permutations) exactly when p
majorizes q, and a Caratheodory walk on that polytope writes q as a mix of
at most n permutations of p.  ``more_mixed`` on a classical system with its
full permutation group, ``birkhoff_rare_synthesis`` and, on two spectra,
``quantum.rare_synthesis_quantum`` all take that path, for n <= ``WALK_MAX_N``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import simplex
from .core import (CapacityError, GptState, StructuralError, TheorySystem,
                   make_classical, sums_to_one)
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
    """Outcome of a convex-combination feasibility query, with witness."""

    status: str                      # "feasible" | "infeasible"
    weights: np.ndarray | None
    residual: float

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
        }

    @staticmethod
    def from_dict(data: dict) -> "FeasibilityCertificate":
        w = data.get("weights")
        return FeasibilityCertificate(
            status=data["status"],
            weights=None if w is None else np.asarray(w, dtype=float),
            residual=float(data["residual"]),
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
    """The group images of rho as rows, in group order."""
    return rho.system.group @ rho.vec


def validate_state(rho: GptState, name: str = "state") -> None:
    """Refuse a vector outside the state space, with ``StructuralError`` naming it ``name``.

    It must be normalized, and no pure effect (``TheorySystem.extremal_effects``, the facet
    functionals of the pure states' hull) may read below -ATOL on it.  No LP is solved, and
    the check is exact wherever the pure states span R^dim.
    """
    if not rho.is_normalized():
        raise StructuralError(f"{name} is not normalized (norm {rho.norm:.6f})")
    values = rho.system.extremal_effects @ rho.vec
    if (values < -ATOL).any():
        raise StructuralError(f"{name} lies outside the state space (effect {values.min():.3e})")


def _require_isometric(system: TheorySystem) -> None:
    """Refuse a matrix set whose elements do not all preserve its averaged Gram
    form (``TheorySystem._isometric``): its orbits need not lie on one sphere."""
    if not system._isometric:
        raise StructuralError("the group does not preserve its averaged Gram form "
                              "(h^T M h != M); its orbits need not lie on one sphere")


def more_mixed(rho: GptState, sigma: GptState) -> FeasibilityCertificate:
    """Certificate that sigma is more mixed than rho (Def.-3 relation).

    Feasible iff sigma lies in the convex hull of the group orbit of rho;
    the weights index the system group in order.  On a classical system
    with its full permutation group (any order of the elements) the orbit
    hull is rho's permutohedron, so the verdict is ``majorizes(rho, sigma)``
    and the permutohedron walk gives the weights, at most n of them nonzero;
    no LP is solved.  Both run on the state vectors as given, which the
    state check lets sum to one within ``SUM_TOL``; the weights rebuild
    sigma within ``WITNESS_TOL`` plus the gap between the two sums, or the
    call raises ``RuntimeError``.  Every other system, a simplex with a
    proper subgroup included, solves the phase-1 LP over the orbit of rho.
    """
    if rho.system is not sigma.system:
        raise StructuralError("states must belong to the same system")
    validate_state(rho, "rho")
    validate_state(sigma, "sigma")
    index = rho.system._permutation_index
    if index is None:
        return feasible_convex_combination(_orbit(rho), sigma.vec)
    if not majorizes(rho.vec, sigma.vec):
        return FeasibilityCertificate("infeasible", None, float("inf"))
    entries, residual = _walk_witness(rho.vec, sigma.vec, index.__getitem__)
    weights = np.zeros(len(index))
    weights[[k for _, k in entries]] = [w for w, _ in entries]
    return FeasibilityCertificate("feasible", weights, residual)


def equally_mixed(rho: GptState, sigma: GptState) -> tuple[bool, np.ndarray | None]:
    """Two-way mixedness comparison, with a reversible witness.

    Returns ``(True, group[k])`` when sigma lies within ``ATOL`` of the orbit
    point of group[k] (the first such k) and rho within ``ATOL`` of some
    point of sigma's orbit, else ``(False, None)``.  No LP is solved: an
    orbit lies on one sphere of the invariant form (see ``orbit_hull``),
    and its hull meets that sphere only at the orbit, so each state is more
    mixed than the other exactly when each lies in the other's orbit.  A
    matrix set that fails ``TheorySystem._isometric`` is refused.
    """
    if rho.system is not sigma.system:
        raise StructuralError("states must belong to the same system")
    validate_state(rho, "rho")
    validate_state(sigma, "sigma")
    _require_isometric(rho.system)
    hits = np.flatnonzero(np.max(np.abs(_orbit(rho) - sigma.vec), axis=1) <= ATOL)
    if not hits.size or not (np.max(np.abs(_orbit(sigma) - rho.vec), axis=1) <= ATOL).any():
        return False, None
    return True, rho.system.group[hits[0]]


def invariant_state(sys: TheorySystem) -> GptState:
    """The maximally mixed state: the group average of any pure state.

    chi = (1/|G|) sum_g g v is the image of a pure state v under the uniform
    RaRe channel (equal weight on every group element).  The function
    checks that every pure state has the same average (within ATOL) and
    that every group element fixes it.  The uniform channel is then the
    witness that chi is more mixed than every vertex, hence than every
    state, so chi is the maximum of the mixedness order.  The average and
    its checks run once per system (``TheorySystem.invariant_vector``); the
    returned state holds its own copy.
    """
    return GptState(sys, sys.invariant_vector)


def _first_hits(points: np.ndarray, atol: float) -> list[int]:
    """Indices of the rows kept by the first-hit rule, in row order.

    A row is kept when it is farther than ``atol`` (max-norm) from every
    row kept before it.  Exact repeats are dropped up front, as the rule
    drops them anyway: whatever kept or dropped a row's first occurrence
    drops the repeat.  Among the distinct rows, ``near[i, j]`` says that
    rows i and j lie within ``atol`` of each other; it is built one
    coordinate at a time, so no (k, k, dim) array is formed.  A row with no
    earlier near row is kept outright.  The others are resolved in row
    order: such a row is kept iff none of its earlier near rows was kept
    (a dropped row's neighbour can still be kept).
    """
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    distinct = np.sort(order[first])
    rows = points[distinct]
    near = np.ones((len(rows), len(rows)), dtype=bool)
    for coord in rows.T:
        gap = np.subtract.outer(coord, coord)
        near &= np.abs(gap, out=gap) <= atol
    near = np.tril(near, -1)                 # earlier rows only
    kept = ~near.any(axis=1)
    for i in np.flatnonzero(~kept):
        kept[i] = not np.any(near[i, :i] & kept[:i])
    return distinct[kept].tolist()


def orbit_hull(rho: GptState) -> list[np.ndarray]:
    """Vertices of the convex hull of the group orbit of rho.

    The hull is exactly the set of states more mixed than rho, so the
    returned list generates that set.  Every group element h preserves the
    averaged Gram form M = mean_g g^T g (h^T M h = M), so the orbit lies on
    one M-sphere, and a sphere is strictly convex: no orbit point lies in
    the hull of the others.  The vertices are therefore the distinct orbit
    points, taken in group order by the first-hit rule within ``ATOL``
    (``_first_hits``).  No LP is solved.  A matrix set that fails
    ``TheorySystem._isometric`` is refused with ``StructuralError``.
    """
    validate_state(rho, "rho")
    _require_isometric(rho.system)
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


@functools.cache
def _subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The proper nonempty subsets of range(n) as 0/1 float rows, and each size less one.

    Built once per n for the permutohedron walk; both arrays are read-only.
    n above ``WALK_MAX_N`` is refused (``CapacityError``) before anything is built.
    """
    if n > WALK_MAX_N:
        raise CapacityError(f"the permutohedron walk supports n <= {WALK_MAX_N}, got n={n}")
    rows = ((np.arange(1, 2 ** n - 1)[:, None] >> np.arange(n)) & 1).astype(float)
    size_index = rows.sum(axis=1).astype(np.intp) - 1
    rows.flags.writeable = False
    size_index.flags.writeable = False
    return rows, size_index


def _permutohedron_walk(p: np.ndarray, q: np.ndarray) -> dict[tuple[int, ...], float]:
    """Weights w_perm with sum_perm w_perm p[perm] = q, over at most n permutations.

    A Caratheodory walk on the permutohedron of p, the polytope
    sum_S x <= (sum of the |S| largest p) over proper nonempty subsets S,
    which holds q when p majorizes q (Rado, 1952).  At x (first q), the
    vertex v puts p in the order of x (stable sort), so v lies on every
    facet that x lies on.  The step from v through x to the boundary ends
    at y, with lam = 1 + min over S of slack/rise; then
    x = y/lam + (1 - 1/lam) v, and y lies on one facet more than x.  A
    chain of n - 1 facets makes a vertex, so the walk ends after at most n
    terms.  In floats, with ``left`` the weight x still carries, a set
    limits the step only when x rises toward it (``left * rise`` above
    ``ZERO_TOL``) and does not already lie on or over it (``left * slack``
    above ``ZERO_TOL``).  When no set limits the step, x is v up to dust
    and the walk stops there.  A permutation met twice keeps one summed
    entry.
    """
    n = p.shape[0]
    rows, size_index = _subsets(n)
    bound = np.cumsum(np.sort(p)[::-1])[size_index]
    by_size = np.argsort(-p, kind="stable")
    x, left = q.copy(), 1.0
    weights: defaultdict[tuple[int, ...], float] = defaultdict(float)
    for step in range(n):
        perm = np.empty(n, dtype=np.intp)
        perm[np.argsort(-x, kind="stable")] = by_size
        v = p[perm]
        rise = rows @ (x - v)
        slack = bound - rows @ x
        limits = (left * rise > ZERO_TOL) & (left * slack > ZERO_TOL)
        if step == n - 1 or not limits.any():
            break
        lam = 1.0 + np.min(slack[limits] / rise[limits])
        weights[tuple(perm.tolist())] += left * (1.0 - 1.0 / lam)
        left /= lam
        x = v + lam * (x - v)
    weights[tuple(perm.tolist())] += left
    return weights


def _walk_witness(p: np.ndarray, q: np.ndarray, index) -> tuple[list[tuple[float, int]], float]:
    """The permutohedron walk's terms as (weight, index(perm)) pairs, and their rebuild residual.

    ``index`` maps a permutation tuple to its group index: the system's
    ``_permutation_index`` for classical ``more_mixed`` and
    ``birkhoff_rare_synthesis``, ``tuple`` (the permutation itself) for
    ``quantum.rare_synthesis_quantum``.  The walk aims at
    q scaled to p's sum, the plane of p's permutohedron (as ``majorizes``
    compares them); the terms rebuild q within ``WITNESS_TOL`` plus
    |sum p - sum q|, or the call raises ``RuntimeError``.
    """
    p_sum, q_sum = p.sum(), q.sum()
    terms = _permutohedron_walk(p, q * (p_sum / q_sum))
    weights = np.fromiter(terms.values(), dtype=float, count=len(terms))
    residual = float(np.max(np.abs(weights @ p[np.array(list(terms))] - q)))
    if not residual <= WITNESS_TOL + abs(p_sum - q_sum):
        raise RuntimeError(f"mixing witness misses target by {residual:.2e}")
    return [(w, index(perm)) for perm, w in terms.items()], residual


@functools.cache
def _classical(n: int) -> TheorySystem:
    """``make_classical(n)``, built once per n; the system and its arrays are read-only."""
    return make_classical(n)


def birkhoff_rare_synthesis(p, q) -> RaReChannel:
    """Explicit RaRe channel over the permutation group mapping p to q.

    Requires that p majorizes q.  The permutohedron walk writes q as a mix
    of at most n permutations of p, each met once; the channel weighs the
    matching permutation matrices of make_classical(n), found by the index
    classical ``more_mixed`` uses; that system is built once per n, and
    refuses n > 6 (it stores the n! matrices).  It rebuilds q within
    ``WITNESS_TOL`` + |sum p - sum q|, or raises.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if not majorizes(p, q):
        raise StructuralError("precondition failed: p does not majorize q")
    system = _classical(p.shape[0])
    entries, _ = _walk_witness(p, q, system._permutation_index.__getitem__)
    return RaReChannel(system, tuple(sorted(entries)))
