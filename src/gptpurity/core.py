"""Finite linear-algebra model of single GPT systems.

A system is described by a real vector space of dimension ``dim`` holding
state vectors, together with the unit (deterministic) effect, the vertices
of the normalized state polytope, and a finite group of reversible
transformations given as explicit matrices.  The pure effects follow from
the vertices.  Group elements, effects and measurements all act linearly
on state vectors, so composition is plain matrix algebra.

States carry an explicit normalization coordinate (the value of the unit
effect), which keeps the group action linear instead of affine.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tolerances import ATOL, SINGULAR_DET_TOL, SUM_TOL

#: seed of the one draw of the generic point z of ``TheorySystem._chamber``
_CHAMBER_SEED = 19


class StructuralError(ValueError):
    """Field dimensions of a system or operation input do not line up."""


class CapacityError(ValueError):
    """Requested construction exceeds the supported finite size."""


def _finite_array(x, name: str) -> np.ndarray:
    """A float copy of ``x``; entries that are not finite numbers are refused, naming ``name``."""
    try:
        a = np.array(x, dtype=float)
    except (ValueError, TypeError) as exc:
        raise StructuralError(f"{name} is not an array of numbers: {exc}") from exc
    if not np.isfinite(a).all():
        raise StructuralError(f"{name} has a non-finite entry")
    return a


def _as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = _finite_array(x, name).reshape(-1)
    if n is not None and v.shape[0] != n:
        raise StructuralError(f"{name} has length {v.shape[0]}, expected {n}")
    v.flags.writeable = False
    return v


def _as_stack(xs, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Read-only ``(len(xs), *shape)`` float copy of a sequence of vectors or matrices, in one array."""
    if not isinstance(xs, np.ndarray):
        xs = list(xs)
    try:
        stack = np.array(xs, dtype=float)
    except (ValueError, TypeError):
        stack = np.empty(0)
    if stack.shape != (len(xs), *shape) or not np.isfinite(stack).all():
        for i, x in enumerate(xs):       # name the entry at fault
            entry = f"{name}[{i}]"
            m = _finite_array(x, entry)
            if m.ndim != len(shape):
                raise StructuralError(f"{entry} must be {len(shape)}-dimensional, got shape {m.shape}")
            if m.shape != shape:
                raise StructuralError(f"{entry} has shape {m.shape}, expected {shape}")
        stack = stack.reshape(0, *shape)     # every entry passed: the sequence is empty
    stack.flags.writeable = False
    return stack


class Chamber(NamedTuple):
    """The chamber geometry of a group generated by reflections (``TheorySystem._chamber``).

    Vectors are rows and read-only; a "form" row f reads f @ x = <f, x>_M, with M
    the averaged Gram form ``group_gram``.
    """

    reflections: np.ndarray      # group index of each reflection, one per positive root
    roots: np.ndarray            # (R, dim) positive roots a: <a, a>_M = 2 and <a, z>_M > 0
    z_form: np.ndarray           # (dim,) the form of the generic point z
    simple: np.ndarray           # (r, dim) the simple roots
    weight_forms: np.ndarray     # (r, dim) forms of the fundamental weights: weight_forms @ simple.T = I
    facets: np.ndarray           # (F, dim) forms of the distinct G-images of each fundamental weight
    facet_weight: np.ndarray     # (F,) the index i of the weight each facet row images


@dataclass(frozen=True, eq=False)
class TheorySystem:
    """A finite GPT system: state space, effects and reversible group.

    Each datum is one read-only float array, which every reader uses as is:
    ``pure_states`` (V, dim) holds the vertices of the normalized state
    polytope as rows, and ``group`` (G, dim, dim) the finite set of
    reversible transformations as matrices.  The fields accept any sequence
    of rows or matrices; a variant of a system is built with ``np.delete``
    or ``np.insert`` on its arrays.  The pure effects are not an input:
    ``extremal_effects`` derives them from the vertices.
    """

    dim: int
    unit_effect: np.ndarray
    pure_states: np.ndarray
    group: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim <= 0:
            raise StructuralError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "unit_effect", _as_vector(self.unit_effect, self.dim, "unit_effect"))
        for field, shape in (("pure_states", (self.dim,)), ("group", (self.dim, self.dim))):
            object.__setattr__(self, field, _as_stack(getattr(self, field), shape, field))
        if not len(self.pure_states):
            raise StructuralError("pure_states must be non-empty")
        if not len(self.group):
            raise StructuralError("group must be non-empty")

    @cached_property
    def group_gram(self) -> np.ndarray:
        """The group-averaged Gram form M = mean_g g^T g, a ``dim x dim`` matrix.

        For a group, h^T M h = M for every element h, so every element is
        orthogonal for the inner product <x, y>_M = x^T M y, and every orbit
        lies on one M-sphere; ``_isometric`` checks the identity.
        """
        rows = self.group.reshape(-1, self.dim)
        gram = rows.T @ rows / len(self.group)
        gram.flags.writeable = False
        return gram

    @cached_property
    def _isometric(self) -> bool:
        """Whether every element h satisfies h^T M h = M (``group_gram``) within
        ATOL, scaled by max(1, max|M|)."""
        gram, stack = self.group_gram, self.group
        moved = stack.transpose(0, 2, 1) @ gram @ stack
        return bool(np.max(np.abs(moved - gram)) <= ATOL * max(1.0, np.abs(gram).max()))

    @cached_property
    def _gram_condition(self) -> float:
        """The 2-norm condition number of ``group_gram``."""
        return float(np.linalg.cond(self.group_gram))

    @cached_property
    def invariant_vector(self) -> np.ndarray:
        """The group average chi = (1/|G|) sum_g g v of a pure state v, read-only.

        Checked to be the same (within ATOL) from every pure state and fixed
        by every group element; otherwise ``StructuralError`` is raised, on
        every access, since a property that raises stores nothing.
        """
        stack = self.group
        averages = self.pure_states @ stack.mean(axis=0).T
        chi = averages[0]
        seeds = np.flatnonzero(np.max(np.abs(averages - chi), axis=1) > ATOL)
        if seeds.size:
            raise StructuralError(
                f"group average depends on the seed pure state (vertex {seeds[0]}); "
                "the invariant state is not unique")
        movers = np.flatnonzero(np.max(np.abs(stack @ chi - chi), axis=1) > ATOL)
        if movers.size:
            raise StructuralError(f"group[{movers[0]}] does not fix the group average")
        chi.flags.writeable = False
        return chi

    @cached_property
    def _permutation_index(self) -> dict[tuple[int, ...], int] | None:
        """Group index of each permutation, when the system is classical with its full group.

        That is when the pure states are the standard basis e_1..e_n in any
        order, the unit effect is all ones, and the group holds each of the
        n! permutation matrices exactly once, in any order.  group[k] is keyed
        by the tuple perm with group[k] @ x = x[perm].  On every other system,
        a simplex with a proper subgroup included, this is None.
        """
        n = self.dim
        if len(self.group) != math.factorial(n):
            return None
        eye = np.eye(n)
        verts = self.pure_states
        rows = self.group.argmax(axis=2)
        if not (np.array_equal(self.unit_effect, np.ones(n))
                and np.array_equal(verts[np.argsort(verts.argmax(axis=1))], eye)
                and np.array_equal(self.group, eye[rows])
                and np.array_equal(np.sort(rows, axis=1), np.broadcast_to(np.arange(n), rows.shape))):
            return None
        index = {tuple(row): k for k, row in enumerate(rows.tolist())}
        return index if len(index) == len(self.group) else None

    @cached_property
    def _chamber(self) -> Chamber | None:
        """The chamber geometry that decides mixedness without an LP, when the
        reflections in the group generate it; None otherwise.

        A reflection is an element g with g^2 = I and rank(I - g) = 1, within
        ATOL; its root a spans the image of I - g, scaled to <a, a>_M = 2, so
        that g x = x - <a, x>_M a.  A fixed generic z (one seeded draw) must
        have no root M-orthogonal to it and no element but I fixing it, beyond
        ATOL.  A root is positive when <a, z>_M > 0, and simple when its
        reflection keeps every other positive root positive (so permutes
        them).  The fundamental weights w_i are the dual basis of the simple
        roots in their span under M.  The reflections generate the group
        exactly when one point of the orbit of z lies in the open dominant
        chamber (every simple root positive on it), since the group they
        generate acts simply transitively on the chambers.  A matrix list
        that is not closed is no group, so the orbit of z must also map onto
        itself, within ATOL, under each simple reflection.  None also when
        the group fails ``_isometric``.
        """
        if not self._isometric:
            return None
        from .mixedness import _first_hits     # mixedness imports this module
        dim, group, gram = self.dim, self.group, self.group_gram
        eye = np.eye(dim)
        image, singular, _ = np.linalg.svd(eye - group)
        rank_one = (singular > ATOL).sum(axis=1) == 1
        involution = np.max(np.abs(group @ group - eye), axis=(1, 2)) <= ATOL
        reflections = np.flatnonzero(rank_one & involution)
        roots = image[reflections, :, 0]
        roots *= np.sqrt(2.0 / np.einsum("ij,jk,ik->i", roots, gram, roots))[:, None]
        z, key = np.random.default_rng(_CHAMBER_SEED).standard_normal((2, dim))
        z_form = gram @ z
        height = roots @ z_form
        movers = group[np.max(np.abs(group - eye), axis=(1, 2)) > ATOL]
        if (np.abs(height) <= ATOL).any() or (np.max(np.abs(movers @ z - z), axis=1) <= ATOL).any():
            return None
        roots *= np.sign(height)[:, None]
        height = np.abs(height)
        # s_i b_j = b_j - <a_i, b_j>_M a_i for the reflection s_i of root a_i
        lifted = height - (roots @ gram @ roots.T) * height[:, None]
        simple = roots[((lifted > 0.0) | np.eye(len(roots), dtype=bool)).all(axis=1)]
        if len(roots) and not (len(simple) == np.linalg.matrix_rank(simple)
                               == np.linalg.matrix_rank(roots)):
            return None
        orbit_z = (group.reshape(-1, dim) @ z).reshape(-1, dim)
        if np.count_nonzero((orbit_z @ gram @ simple.T > 0.0).all(axis=1)) != 1:
            return None
        orbit_z = orbit_z[np.argsort(orbit_z @ key)]
        for root in simple:
            moved = orbit_z - np.outer(orbit_z @ gram @ root, root)
            if np.max(np.abs(moved[np.argsort(moved @ key)] - orbit_z)) > ATOL:
                return None
        weights = np.linalg.solve(simple @ gram @ simple.T, simple)
        facets, facet_weight = [], []
        for i, weight in enumerate(weights):
            images = (group.reshape(-1, dim) @ weight).reshape(-1, dim)
            distinct = images[_first_hits(images, ATOL)]
            facets.append(distinct @ gram)
            facet_weight.append(np.full(len(distinct), i))
        chamber = Chamber(reflections, roots, z_form, simple, weights @ gram,
                          np.concatenate(facets or [np.empty((0, dim))]),
                          np.concatenate(facet_weight or [np.empty(0, dtype=int)]))
        for array in chamber:
            array.flags.writeable = False
        return chamber

    @cached_property
    def _spans(self) -> bool:
        """Whether the pure states span R^dim, decided as ``validate_system`` decides it."""
        return len(_spanning_rows(self.pure_states)) == self.dim

    @cached_property
    def _off_span(self) -> np.ndarray | None:
        """The orthogonal projector onto the complement of the pure states' span,
        read-only; None when they span R^dim (``_spans``)."""
        if self._spans:
            return None
        basis = np.linalg.svd(self.pure_states)[2][:len(_spanning_rows(self.pure_states))]
        off = np.eye(self.dim) - basis.T @ basis
        off.flags.writeable = False
        return off

    @cached_property
    def extremal_effects(self) -> np.ndarray:
        """The pure effects, one read-only (K, dim) array: the facet functionals of the
        pure states' hull, each scaled to read 1 at its top.

        Pure measurements have atomic (ray-extremal) effects (Chiribella,
        D'Ariano & Perinotti, Phys. Rev. A 84, 012311, 2011); on a polytope
        these are its facet functionals.  A candidate is the cofactor normal
        of ``dim - 1`` pure states (in dim 3, their cross product), signed so
        that its top outweighs its lowest value on the pure states, and kept
        when none reads below -ATOL times its top.  One is kept per set of
        pure states it vanishes on (at most ATOL, scaled), if that set has
        rank ``dim - 1`` or more, in the order of those sets.
        Cofactors are exact on integer and dyadic data: classical-n gives
        eye(n).  The shape is (0, dim) for dim 1, and for pure states that
        do not span R^dim.
        """
        dim, verts = self.dim, self.pure_states
        effects = np.empty((0, dim))
        if dim > 1 and self._spans:
            rows = verts[list(itertools.combinations(range(len(verts)), dim - 1))]
            normals = np.stack([(-1) ** j * np.linalg.det(np.delete(rows, j, axis=2))
                                for j in range(dim)], axis=1)
            values = normals @ verts.T
            sign = np.where(values.max(axis=1) + values.min(axis=1) >= 0.0, 1.0, -1.0)[:, None]
            normals *= sign
            values *= sign
            top = values.max(axis=1)
            keep = np.flatnonzero((top > 0.0) & (values.min(axis=1) >= -ATOL * top))
            zeros, first = np.unique(values[keep] <= ATOL * top[keep, None], axis=0,
                                     return_index=True)
            facets = keep[[k for zero, k in zip(zeros, first)
                           if np.linalg.matrix_rank(verts[zero]) >= dim - 1]]
            effects = normals[facets] / top[facets, None] + 0.0     # + 0.0 clears -0.0
        effects.flags.writeable = False
        return effects

    @cached_property
    def pure_measurements(self) -> tuple["Measurement", ...]:
        """The vertices of the measurement polytope, as measurements.

        A measurement built from the pure effects a_1..a_K (``extremal_effects``)
        is a weight vector c >= 0 with sum_i c_i a_i = u.  Its vertices are the basic solutions:
        a support S of at most ``dim`` linearly independent effects (full
        numerical rank of the Gram matrix A_S^T A_S) with A_S c = u and every
        weight above ``ATOL``.  A support with a weight at or below ``ATOL``
        is skipped, since a smaller support gives the same measurement.
        """
        effects = self.extremal_effects
        found = []
        for size in range(1, min(self.dim, len(effects)) + 1):
            for support in itertools.combinations(effects, size):
                cols = np.column_stack(support)
                gram = cols.T @ cols
                if np.linalg.matrix_rank(gram, hermitian=True) < size:
                    continue
                # the normal equations keep dyadic data exact: the simplex and
                # the square bit's facet pairs get weights of exactly 1
                weights = np.linalg.solve(gram, cols.T @ self.unit_effect)
                if weights.min() <= ATOL:
                    continue
                if np.max(np.abs(cols @ weights - self.unit_effect)) > ATOL:
                    continue
                found.append(Measurement(tuple(Effect(self, w * a)
                                               for w, a in zip(weights, support))))
        return tuple(found)

    @cached_property
    def _measurement_stack(self) -> np.ndarray:
        """``pure_measurements`` as one read-only ``(M, K, dim)`` array of effect covectors,
        each measurement padded with zero effects to the largest size K."""
        measurements = self.pure_measurements
        stack = np.zeros((len(measurements),
                          max((len(m.effects) for m in measurements), default=0), self.dim))
        for row, m in zip(stack, measurements):
            row[:len(m.effects)] = [a.covec for a in m.effects]
        stack.flags.writeable = False
        return stack

    def state(self, vec) -> "GptState":
        return GptState(self, vec)


def sums_to_one(weights) -> bool:
    """The one sum-to-one check: weights (or one total: a norm, a trace) non-empty, none below
    -SUM_TOL, summing to one within SUM_TOL.  Compared as Python floats; NaN and inf fail."""
    w = np.asarray(weights, dtype=float).ravel().tolist()
    total = sum(w)
    return bool(w) and min(w) >= -SUM_TOL and abs(total - 1.0) <= SUM_TOL


@dataclass(frozen=True, eq=False)
class GptState:
    """A state of a system, as coefficients against the system basis."""

    system: TheorySystem
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _as_vector(self.vec, self.system.dim, "state vec"))

    @property
    def norm(self) -> float:
        return float(self.system.unit_effect @ self.vec)

    def is_normalized(self) -> bool:
        return sums_to_one(self.norm)


@dataclass(frozen=True, eq=False)
class Effect:
    """A linear functional with values in [0, 1] on normalized states."""

    system: TheorySystem
    covec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covec", _as_vector(self.covec, self.system.dim, "effect covec"))

    def __call__(self, state) -> float:
        vec = state.vec if isinstance(state, GptState) else np.asarray(state, dtype=float)
        return float(self.covec @ vec)


@dataclass(frozen=True, eq=False)
class Measurement:
    """A collection of effects summing to the unit effect."""

    effects: tuple[Effect, ...]

    def __post_init__(self):
        if not self.effects:
            raise StructuralError("measurement needs at least one effect")
        sys0 = self.effects[0].system
        total = np.zeros(sys0.dim)
        for a in self.effects:
            if a.system is not sys0:
                raise StructuralError("all effects of a measurement must share a system")
            total = total + a.covec
        if not np.allclose(total, sys0.unit_effect, rtol=0.0, atol=ATOL):
            raise StructuralError("measurement effects do not sum to the unit effect")

    @property
    def system(self) -> TheorySystem:
        return self.effects[0].system

    def outcome_probs(self, state: GptState) -> np.ndarray:
        return np.array([a(state) for a in self.effects])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _spanning_rows(verts: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent set of rows, chosen greedily in order."""
    base: list[int] = []
    for j in range(len(verts)):
        if np.linalg.matrix_rank(verts[base + [j]]) > len(base):
            base.append(j)
    return base


def _is_member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the ``queries`` found in the sorted array ``keys``."""
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return keys[pos] == queries


def _closure_report(perm: np.ndarray, members: np.ndarray, base: list[int]) -> list[str]:
    """Repeats, closure and inverse violations among the group elements ``members``.

    ``perm[g]`` is the vertex permutation of group[g].  A permutation is keyed
    by its images of the independent vertices ``base`` in base |V|; these fix
    the matrix, so equal keys mean equal elements.
    """
    n_vertices = perm.shape[1]
    if n_vertices ** len(base) >= 2 ** 63:
        raise CapacityError(f"{n_vertices} vertices in dimension {len(base)} are too many "
                            "to key the vertex permutations")
    radix = n_vertices ** np.arange(len(base))
    perms = perm[members]
    element_keys = perms[:, base] @ radix
    keys, first = np.unique(element_keys, return_index=True)
    first_copy = first[np.searchsorted(keys, element_keys)]
    distinct = perms[first][:, base]
    has_inverse = _is_member(keys, np.argsort(perms, axis=1)[:, base] @ radix)
    report = []
    for k, (i, row) in enumerate(zip(members, perms)):
        if first_copy[k] != k:
            report.append(f"group[{i}] repeats group[{members[first_copy[k]]}]")
        # left multiplication is injective, so the distinct permutations are
        # closed under it exactly when it maps their keys onto themselves
        if not np.array_equal(np.sort(row[distinct] @ radix), keys):
            closed = _is_member(keys, row[perms[:, base]] @ radix)
            report += [f"group is not closed: group[{i}] @ group[{j}] not in list"
                       for j in members[~closed]]
        if not has_inverse[k]:
            report.append(f"group[{i}] has no inverse in the list")
    return report


def validate_system(sys: TheorySystem) -> list[str]:
    """Check every TheorySystem invariant; return the list of violations.

    An empty report means the system is valid within tolerance.  Structural
    problems (mismatched dimensions) raise ``StructuralError`` instead of
    being reported, since no further check is meaningful.

    Every pure state must be normalized (``sums_to_one`` of its norm).
    Every group element must permute the vertex list: perm[g, j] is the
    first pure state within ``ATOL`` (max-norm) of group[g] @ pure_states[j].
    When the pure states span R^dim (checked, and reported otherwise), a
    matrix is fixed by its images of ``dim`` independent vertices, so repeats,
    closure and inverses are checked exactly on the permutations of the elements
    that permute the vertices: group[i] @ group[j] acts as perm[i][perm[j]]
    and the inverse of group[i] as argsort(perm[i]).
    """
    report: list[str] = []
    verts, group = sys.pure_states, sys.group

    images = np.matmul(group, verts.T).transpose(0, 2, 1)     # images[g, j] = g @ v_j
    close = np.stack([np.max(np.abs(images - w), axis=2) <= ATOL for w in verts], axis=2)
    matched = close.any(axis=2).all(axis=1)
    perm = close.argmax(axis=2)
    bijective = np.all(np.sort(perm, axis=1) == np.arange(len(verts)), axis=1)
    singular = np.abs(np.linalg.det(group)) < SINGULAR_DET_TOL
    unit_residual = np.max(np.abs(sys.unit_effect @ group - sys.unit_effect), axis=1)
    for i in range(len(group)):
        if singular[i]:
            report.append(f"group[{i}] is singular (det ~ 0)")
            continue
        if not matched[i]:
            j = int(np.argmin(close[i].any(axis=1)))
            residual = np.max(np.abs(images[i, j] - verts), axis=1).min()
            report.append(f"group[{i}] maps pure_states[{j}] outside the vertex list "
                          f"(residual {residual:.3e})")
        elif not bijective[i]:
            report.append(f"group[{i}] does not act injectively on the vertex list")
        if unit_residual[i] > ATOL:
            report.append(f"group[{i}] does not preserve the unit effect "
                          f"(residual {unit_residual[i]:.3e})")

    for j, norm in enumerate(verts @ sys.unit_effect):
        if not sums_to_one(norm):
            report.append(f"pure_states[{j}] is not normalized (norm {norm:.6f})")

    base = _spanning_rows(verts)
    if len(base) < sys.dim:
        report.append("pure_states do not span the state space")
    else:
        report += _closure_report(perm, np.flatnonzero(~singular & matched & bijective), base)
    return report


def make_classical(n: int) -> TheorySystem:
    """Classical system on n outcomes: simplex vertices, permutation group."""
    if n < 1:
        raise StructuralError("n must be >= 1")
    if n > 6:
        raise CapacityError(f"classical systems are limited to n <= 6 (n! group), got n={n}")
    eye = np.eye(n)
    # group[k] is the matrix P with (P x)[i] = x[perm[i]], for the k-th permutation
    # in lexicographic order
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.intp, count=n * math.factorial(n)).reshape(-1, n)
    group = eye[perms]
    return TheorySystem(
        dim=n,
        unit_effect=np.ones(n),
        pure_states=eye,
        group=group,
        name=f"classical-{n}",
    )


def make_polygon(n: int) -> TheorySystem:
    """Regular n-gon system with its dihedral group of order 2n.

    Coordinates are (x, y, t) as in ``make_square_bit``; vertex k is
    (cos 2 pi k / n, sin 2 pi k / n, 1), and the pure effects follow from the
    vertices.  The group lists, for each k, the turn by 2 pi k / n and then
    that turn times the flip y -> -y.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 3:
        raise StructuralError(f"a polygon needs an integer n >= 3, got {n!r}")
    angles = 2 * np.pi * np.arange(n) / n
    flip = np.diag([1.0, -1.0, 1.0])
    group = []
    for t in angles:
        turn = np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1.0]])
        group += [turn, turn @ flip]
    return TheorySystem(
        dim=3,
        unit_effect=[0.0, 0.0, 1.0],
        pure_states=[[np.cos(t), np.sin(t), 1.0] for t in angles],
        group=group,
        name=f"polygon-{n}",
    )


def make_square_bit() -> TheorySystem:
    """Square-state-space system with the dihedral symmetry group of order 8.

    Coordinates are (x, y, t) where t is the normalization component; the
    normalized states are the square [-1, 1]^2 at t = 1.  Its pure effects
    (``extremal_effects``) are the four facet effects (+-x + 1)/2 and
    (+-y + 1)/2, each 1 on one edge and 0 on the opposite edge.
    """
    unit = np.array([0.0, 0.0, 1.0])
    vertices = [np.array([sx, sy, 1.0]) for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    planar = [np.linalg.matrix_power(rot, k) for k in range(4)]
    planar += [np.diag([1.0, -1.0]) @ r for r in planar]  # reflections
    group = []
    for r in planar:
        u = np.eye(3)
        u[:2, :2] = r
        group.append(u)
    return TheorySystem(
        dim=3,
        unit_effect=unit,
        pure_states=vertices,
        group=group,
        name="square-bit",
    )


# ---------------------------------------------------------------------------
# theory-definition files
# ---------------------------------------------------------------------------

def system_to_dict(sys: TheorySystem) -> dict:
    return {
        "dim": sys.dim,
        "unit_effect": sys.unit_effect.tolist(),
        "pure_states": sys.pure_states.tolist(),
        "group": sys.group.tolist(),
        "name": sys.name,
    }


def system_from_dict(data: dict, validate: bool = True) -> TheorySystem:
    """The system a theory definition describes; an old ``extremal_effects`` key is ignored."""
    if not isinstance(data, dict):
        raise StructuralError(f"theory definition must be an object, got {type(data).__name__}")
    try:
        for key in ("pure_states", "group"):
            if not isinstance(data[key], list):
                raise StructuralError(f"{key} must be a list, got {type(data[key]).__name__}")
        sys = TheorySystem(
            dim=data["dim"],
            unit_effect=data["unit_effect"],
            pure_states=data["pure_states"],
            group=data["group"],
            name=str(data.get("name", "custom")),
        )
    except KeyError as exc:
        raise StructuralError(f"theory definition is missing field {exc}") from exc
    if validate:
        report = validate_system(sys)
        if report:
            raise StructuralError("invalid theory definition: " + "; ".join(report))
    return sys


def load_system(path: str, validate: bool = True) -> TheorySystem:
    with open(path) as fh:
        data = json.load(fh)
    return system_from_dict(data, validate=validate)


def save_system(sys: TheorySystem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2)
