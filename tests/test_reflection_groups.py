"""``more_mixed`` on groups generated by reflections: G-majorization without an LP.

The orbit LP (``feasible_convex_combination``) stays here as the reference,
and every verdict is also checked by its own witness: weights that rebuild
sigma, or a functional that separates it from rho's orbit.  HiGHS is not
used near a hull boundary, since it drops matrix entries below 1e-9.
"""

import math

import numpy as np
import pytest

from gptpurity import core, mixedness

from test_mixedness import _assert_separates, _classical_pairs, lp_calls  # noqa: F401 (fixture)
from test_user_system import _pentagon_dict


def _assert_witnessed(system, p, q, cert):
    """Weights rebuild sigma within WITNESS_TOL over at most rank + 1 points, or
    the functional separates."""
    if cert.feasible:
        assert cert.weights.shape == (len(system.group),) and cert.weights.min() >= 0.0
        assert abs(cert.weights.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(cert.weights) <= len(system._chamber.simple) + 1
        rebuilt = cert.weights @ (system.group @ p)
        assert np.max(np.abs(rebuilt - q)) == cert.residual <= mixedness.WITNESS_TOL
        assert cert.functional is None and cert.gap is None
    else:
        assert cert.weights is None and cert.residual == float("inf")
        _assert_separates(system, p, q, cert)


def _pairs(system, rng, count):
    """Random pairs of states and RaRe images of rho, alternately."""
    verts = system.pure_states
    for t in range(count):
        p = rng.dirichlet(np.ones(len(verts))) @ verts
        if t % 2:
            yield p, rng.dirichlet(np.ones(len(verts))) @ verts
        else:
            picks = rng.choice(len(system.group), size=min(4, len(system.group)), replace=False)
            yield p, rng.dirichlet(np.ones(len(picks))) @ (system.group[picks] @ p)


def test_polygon_5_is_the_pentagon_fixture():
    polygon, pentagon = core.make_polygon(5), core.system_from_dict(_pentagon_dict())
    for field in ("unit_effect", "pure_states", "group", "extremal_effects"):
        assert getattr(polygon, field).tobytes() == getattr(pentagon, field).tobytes(), field
    assert polygon.name == "polygon-5" and core.validate_system(polygon) == []
    for bad in (2, 0, -1, 4.0, True, "5"):
        with pytest.raises(core.StructuralError):
            core.make_polygon(bad)


@pytest.mark.parametrize("system, reflections, facets", [
    (core.make_square_bit(), 4, 8),
    (core.make_polygon(3), 3, 6),
    (core.make_polygon(8), 8, 16),
    (core.make_classical(3), 3, 6),
    (core.make_classical(4), 6, 14),
    (core.make_classical(1), 0, 0),
], ids=lambda x: x.name if isinstance(x, core.TheorySystem) else str(x))
def test_chamber_of_a_reflection_group(system, reflections, facets):
    chamber = system._chamber
    assert len(chamber.reflections) == len(chamber.roots) == reflections
    rank = 2 if system.dim == 3 and system._permutation_index is None else system.dim - 1
    assert chamber.simple.shape == (rank, system.dim)
    gram = system.group_gram
    for k, root in zip(chamber.reflections, chamber.roots):
        g = system.group[k]
        assert abs(root @ gram @ root - 2.0) <= 1e-12
        assert root @ chamber.z_form > 0.0
        np.testing.assert_allclose(g, np.eye(system.dim) - np.outer(root, root @ gram), atol=1e-12)
    np.testing.assert_allclose(chamber.weight_forms @ chamber.simple.T, np.eye(rank), atol=1e-12)
    assert chamber.facets.shape == (facets, system.dim)
    assert np.bincount(chamber.facet_weight, minlength=rank).sum() == facets
    for array in chamber:
        assert not array.flags.writeable


def test_chamber_is_none_unless_the_reflections_generate_the_group():
    square_bit = core.make_square_bit()

    def variant(group):
        return core.TheorySystem(dim=3, unit_effect=square_bit.unit_effect,
                                 pure_states=square_bit.pure_states, group=group)

    trit = core.make_classical(3)
    cyclic = core.TheorySystem(dim=3, unit_effect=trit.unit_effect, pure_states=trit.pure_states,
                               group=(np.eye(3), np.eye(3)[[1, 2, 0]], np.eye(3)[[2, 0, 1]]))
    assert cyclic._chamber is None                                 # no reflection
    assert variant(square_bit.group[:4])._chamber is None          # Z_4, no reflection
    assert variant(square_bit.group[[0, 2]])._chamber is None      # the half turn
    # a list that is no group has no chamber to ask for: it is refused when built,
    # a repeated element, the group less its quarter turn (not closed) and a
    # contraction alike
    for group, violation in ((square_bit.group[np.r_[:8, 0]], "group[8] repeats group[0]"),
                             (np.delete(square_bit.group, 1, axis=0),
                              "group is not closed: group[1] @ group[2] not in list"),
                             (np.insert(square_bit.group[:4], 4, np.diag([0.1, 0.1, 1.0]), axis=0),
                              "group[4] does not preserve the averaged Gram form M")):
        with pytest.raises(core.InvalidSystemError) as info:
            variant(group)
        assert any(line.startswith(violation) for line in info.value.violations), violation
    # one reflection generates {I, flip}: a reflection subgroup keeps the path
    flip = variant(square_bit.group[[0, 4]])._chamber
    assert flip is not None and len(flip.simple) == 1 and len(flip.facets) == 2


@pytest.mark.parametrize("system", [core.make_square_bit(), core.system_from_dict(_pentagon_dict()),
                                    core.make_polygon(8)], ids=lambda s: s.name)
def test_reflection_verdicts_agree_with_the_orbit_lp(system, lp_calls):
    rng = np.random.default_rng(2024)
    pairs = list(_pairs(system, rng, 300))
    certs = [mixedness.more_mixed(system.state(p), system.state(q)) for p, q in pairs]
    assert lp_calls == []
    verdicts = set()
    for (p, q), cert in zip(pairs, certs):
        assert cert.feasible == mixedness.feasible_convex_combination(system.group @ p, q).feasible
        _assert_witnessed(system, p, q, cert)
        verdicts.add(cert.feasible)
    assert verdicts == {True, False}


def _hull_edges(system, p):
    """The edges of the orbit hull of p, as pairs of vertices in turning order."""
    hull = np.array(mixedness.orbit_hull(system.state(p)))
    hull = hull[np.argsort(np.arctan2(hull[:, 1], hull[:, 0]))]
    return zip(hull, np.roll(hull, -1, axis=0))


@pytest.mark.parametrize("system", [core.make_square_bit(), core.system_from_dict(_pentagon_dict()),
                                    core.make_polygon(8)], ids=lambda s: s.name)
def test_reflection_boundary_sweep_raises_nothing_and_witnesses_every_verdict(system, lp_calls):
    # sigma on each hull edge of a random rho, moved 1e-13..1e-8 out or in
    # along the edge's outer normal; inside is always feasible, and 1e-9 or
    # more outside is always infeasible (the coefficient tolerance is 1e-10)
    rng = np.random.default_rng(77)
    verts = system.pure_states
    counts = {True: 0, False: 0}
    for _ in range(12):
        p = rng.dirichlet(np.ones(len(verts))) @ verts
        for a, b in _hull_edges(system, p):
            normal = np.array([b[1] - a[1], a[0] - b[0], 0.0])
            normal /= np.linalg.norm(normal)
            for gap in 10.0 ** np.arange(-13, -7):
                for side in (1.0, -1.0):
                    t = rng.uniform(0.05, 0.95)
                    q = t * a + (1 - t) * b + side * gap * normal
                    q[2] = 1.0
                    cert = mixedness.more_mixed(system.state(p), system.state(q))
                    _assert_witnessed(system, p, q, cert)
                    if side < 0:
                        assert cert.feasible
                    elif gap >= 1e-9:
                        assert not cert.feasible
                    counts[cert.feasible] += 1
    assert lp_calls == []
    assert min(counts.values()) > 100


@pytest.mark.parametrize("n", [3, 5, 8, 16, 64, 128])
def test_polygon_more_mixed_follows_the_radius_rule(n, lp_calls):
    # the orbit of rho lies on the circle of radius |rho|, and no arc between
    # neighbouring orbit points exceeds 2 pi / n, so its hull holds the disc
    # of radius |rho| cos(pi / n) and lies in the disc of radius |rho|
    system = core.make_polygon(n)
    rng = np.random.default_rng(n)
    inner = math.cos(math.pi / n)
    for _ in range(40):
        radius = rng.uniform(0.05, 0.4)
        angle, turn = rng.uniform(0, 2 * np.pi, size=2)
        p = np.array([radius * np.cos(angle), radius * np.sin(angle), 1.0])
        for scale in (0.3, 0.9 * inner, 0.999 * inner, 1.001, 1.1, 1.2):
            q = np.array([scale * radius * np.cos(turn), scale * radius * np.sin(turn), 1.0])
            cert = mixedness.more_mixed(system.state(p), system.state(q))
            assert cert.feasible == (scale < inner), (n, scale)
            _assert_witnessed(system, p, q, cert)
    assert lp_calls == []


def test_a_reflection_subgroup_of_a_simplex(lp_calls):
    # {I, swap of outcomes 0 and 1} on classical-3 is generated by its one
    # reflection: sigma must keep rho's third entry (the group-fixed part)
    # and have its first two entries majorized by rho's
    trit = core.make_classical(3)
    swap = core.TheorySystem(dim=3, unit_effect=trit.unit_effect, pure_states=trit.pure_states,
                             group=trit.group[[0, 2]])
    assert swap._permutation_index is None and len(swap._chamber.simple) == 1
    cases = [([0.6, 0.3, 0.1], [0.4, 0.5, 0.1], True), ([0.6, 0.3, 0.1], [0.65, 0.25, 0.1], False),
             ([0.6, 0.3, 0.1], [0.45, 0.45, 0.1], True), ([0.6, 0.3, 0.1], [0.5, 0.3, 0.2], False),
             ([0.6, 0.3, 0.1], [0.45, 0.45 - 5e-10, 0.1 + 5e-10], True)]
    for p, q, expected in cases:
        p, q = np.array(p), np.array(q)
        cert = mixedness.more_mixed(swap.state(p), swap.state(q))
        assert cert.feasible == expected, (p, q)
        if cert.feasible:
            rebuilt = cert.weights @ (swap.group @ p)
            assert np.max(np.abs(rebuilt - q)) == cert.residual <= 2 * mixedness.WITNESS_TOL
        else:
            _assert_separates(swap, p, q, cert)
    assert lp_calls == []


def test_a_short_fixed_part_difference_is_separated_on_the_whole_orbit(lp_calls):
    # sigma a RaRe image of rho under {I, swap} on classical-3, pushed
    # 1e-9..1e-8 outward from the centroid: the group-fixed parts then differ
    # by about ATOL, and the functional along that difference must read the
    # same on both orbit points, so no verdict raises
    trit = core.make_classical(3)
    swap = core.TheorySystem(dim=3, unit_effect=trit.unit_effect, pure_states=trit.pure_states,
                             group=trit.group[[0, 2]])
    p = np.array([0.8960193407187604, 0.0100575897966995, 0.09392306948454006])
    rng = np.random.default_rng(303)
    verdicts = set()
    for _ in range(200):
        w = rng.uniform()
        image = w * p + (1 - w) * (swap.group[1] @ p)
        out = image - 1 / 3
        q = image + 10.0 ** rng.uniform(-9, -8) * out / np.linalg.norm(out)
        cert = mixedness.more_mixed(swap.state(p), swap.state(q))
        if cert.feasible:
            rebuilt = cert.weights @ (swap.group @ p)
            assert np.max(np.abs(rebuilt - q)) == cert.residual <= 2 * mixedness.WITNESS_TOL
        else:
            _assert_separates(swap, p, q, cert)
        verdicts.add(cert.feasible)
    assert verdicts == {True, False}
    assert lp_calls == []


def _reflection_walk_reference(orbit, x, top, chamber, gram):
    """The G-permutohedron walk with its weights dense in group order, the reference
    for the reflection instance of ``mixedness._caratheodory_walk``."""
    facets = chamber.facets
    bound = (chamber.weight_forms @ orbit[top])[chamber.facet_weight]
    rank = len(chamber.simple)
    weights = np.zeros(len(orbit))
    left = 1.0
    for step in range(rank + 1):
        slack = bound - facets @ x
        tight = left * slack <= mixedness.ZERO_TOL
        k = int(np.argmax(orbit @ (tight @ facets if tight.any() else gram @ x)))
        if step == rank:
            break
        v = orbit[k]
        rise = facets @ (x - v)
        limits = (left * rise > mixedness.ZERO_TOL) & ~tight
        if not limits.any():
            break
        lam = 1.0 + np.min(slack[limits] / rise[limits])
        weights[k] += left * (1.0 - 1.0 / lam)
        left /= lam
        x = v + lam * (x - v)
    weights[k] += left
    return weights


@pytest.mark.parametrize("system", [core.make_square_bit(), core.system_from_dict(_pentagon_dict()),
                                    core.make_polygon(8)], ids=lambda s: s.name)
def test_reflection_walk_matches_its_dense_reference_bit_for_bit(system):
    # random pairs, RaRe images, and points just inside a hull edge, where
    # the walk starts on (or within dust of) a facet
    rng = np.random.default_rng(31)
    verts = system.pure_states
    pairs = list(_pairs(system, rng, 120))
    for _ in range(10):
        p = rng.dirichlet(np.ones(len(verts))) @ verts
        for a, b in _hull_edges(system, p):
            t, gap = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-13, -9)
            q = t * a + (1 - t) * b
            q[:2] -= gap * q[:2] / np.linalg.norm(q[:2])
            pairs.append((p, q))
    chamber, dim = system._chamber, system.dim
    walks = 0
    for p, q in pairs:
        rho, sigma = system.state(p), system.state(q)
        cert = mixedness.more_mixed(rho, sigma)
        if not cert.feasible:
            continue
        # the preamble of mixedness._reflection_certificate, step for step
        orbit = mixedness._orbit(rho)
        target = sigma.vec * (rho.norm / sigma.norm)
        images = (system.group.reshape(-1, dim) @ target).reshape(-1, dim)
        top = int(np.argmax(orbit @ chamber.z_form))
        drop = orbit[top] - images[int(np.argmax(images @ chamber.z_form))]
        fixed = drop - (chamber.weight_forms @ drop) @ chamber.simple
        ref = _reflection_walk_reference(orbit, target + fixed, top, chamber, system.group_gram)
        assert cert.weights.tobytes() == ref.tobytes()
        walks += 1
    assert walks >= 150


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_reflection_route_on_a_classical_chamber_is_majorization(n):
    # classical more_mixed takes the sort; the chamber route, which it does
    # not take, must give the same verdicts, and its witnesses must be the
    # classical ones: M = I, and the k-th fundamental weight of S_n is the
    # indicator of the k coordinates a dominant point has largest, less (k/n) 1
    system = core.make_classical(n)
    chamber = system._chamber
    rng = np.random.default_rng(300 + n)
    for p, q in _classical_pairs(rng, n, 60):
        cert = mixedness._reflection_certificate(system.state(p), system.state(q), chamber)
        assert cert.feasible == mixedness.majorizes(p, q)
        if cert.feasible:
            assert np.count_nonzero(cert.weights) <= n
            rebuilt = cert.weights @ (system.group @ p)
            assert np.max(np.abs(rebuilt - q)) <= mixedness.WITNESS_TOL
        else:
            k = int(np.count_nonzero(cert.functional > 0.0))
            assert 1 <= k < n
            top_k = np.zeros(n)
            top_k[np.argsort(-q, kind="stable")[:k]] = 1.0
            assert np.max(np.abs(cert.functional + k / n - top_k)) <= 1e-15
            excess = np.cumsum(np.sort(q)[::-1]) * (p.sum() / q.sum()) - np.cumsum(np.sort(p)[::-1])
            assert excess[k - 1] > mixedness.MAJORIZATION_TOL
            assert abs(cert.gap - excess[k - 1]) <= 1e-15
