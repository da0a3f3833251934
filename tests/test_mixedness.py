import itertools
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptpurity import core, mixedness, simplex
from gptpurity.tolerances import WITNESS_TOL

from oracles import hull_membership_scipy
from test_user_system import _pentagon_dict


@pytest.fixture(scope="module")
def bit():
    return core.make_classical(2)


@pytest.fixture(scope="module")
def trit():
    return core.make_classical(3)


@pytest.fixture(scope="module")
def square_bit():
    return core.make_square_bit()


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the simplex phase-1 solves made while the test runs."""
    calls = []
    phase1 = simplex.phase1

    def counted(a, b):
        calls.append(a.shape[1])
        return phase1(a, b)

    monkeypatch.setattr(simplex, "phase1", counted)
    return calls


# -- feasible_convex_combination --------------------------------------------

def test_midpoint_is_feasible():
    cert = mixedness.feasible_convex_combination([(1, 0), (0, 1)], (0.5, 0.5))
    assert cert.feasible
    np.testing.assert_allclose(cert.weights, [0.5, 0.5], atol=1e-10)


def test_point_off_segment_is_infeasible():
    cert = mixedness.feasible_convex_combination([(1, 0), (0, 1)], (0.7, 0.5))
    assert not cert.feasible


def test_center_in_orbit_hull(square_bit):
    rho = np.array([0.5, 0.2, 1.0])
    orbit = [u @ rho for u in square_bit.group]
    cert = mixedness.feasible_convex_combination(orbit, np.array([0.0, 0.0, 1.0]))
    assert cert.feasible
    assert cert.residual <= 1e-8


def test_bad_scale_raises():
    with pytest.raises(mixedness.IllConditionedError):
        mixedness.feasible_convex_combination([(1e13, 0), (0, 1)], (1.0, 0.0))


def test_generators_as_rows_of_an_array():
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    cert = mixedness.feasible_convex_combination(gens, (0.25, 0.75))
    listed = mixedness.feasible_convex_combination([(1, 0), (0, 1)], (0.25, 0.75))
    assert cert.weights.tobytes() == listed.weights.tobytes()
    for bad, target in ((np.empty((0, 2)), (1.0, 0.0)), ([(1, 0), (0, 1, 0)], (1.0, 0.0)),
                        (gens, (1.0, 0.0, 0.0)), (np.ones(2), (1.0, 0.0))):
        with pytest.raises(core.StructuralError):
            mixedness.feasible_convex_combination(bad, target)


def test_certificate_roundtrip():
    cert = mixedness.feasible_convex_combination([(1, 0), (0, 1)], (0.25, 0.75))
    back = mixedness.FeasibilityCertificate.from_dict(cert.to_dict())
    assert back.status == cert.status
    np.testing.assert_allclose(back.weights, cert.weights)
    assert back.functional is None and back.gap is None
    # a "no" without an LP carries its functional and gap through the round trip
    square = core.make_square_bit()
    cert = mixedness.more_mixed(square.state([0.1, 0.0, 1.0]), square.state([0.5, 0.2, 1.0]))
    data = cert.to_dict()
    assert data["weights"] is None and data["gap"] > 0 and len(data["functional"]) == 3
    back = mixedness.FeasibilityCertificate.from_dict(data)
    assert back.to_dict() == data
    assert back.functional.tobytes() == cert.functional.tobytes() and back.gap == cert.gap
    # a dict written before the two keys existed still reads
    old = {"status": "infeasible", "weights": None, "residual": float("inf")}
    assert mixedness.FeasibilityCertificate.from_dict(old).functional is None


# -- more_mixed / equally_mixed ---------------------------------------------

def test_bit_mixing_witness(bit):
    cert = mixedness.more_mixed(bit.state([0.7, 0.3]), bit.state([0.5, 0.5]))
    assert cert.feasible
    # the unique witness solves 0.7 t + 0.3 (1 - t) = 0.5, so t = 0.5
    np.testing.assert_allclose(cert.weights, [0.5, 0.5], atol=1e-9)


def test_uniform_cannot_sharpen(bit):
    assert not mixedness.more_mixed(bit.state([0.5, 0.5]), bit.state([0.7, 0.3])).feasible


def test_square_vertex_reaches_everything(square_bit):
    rng = np.random.default_rng(3)
    vertex = square_bit.state([1.0, 1.0, 1.0])
    for _ in range(25):
        mix = rng.dirichlet(np.ones(4))
        sigma = square_bit.state(sum(w * v for w, v in zip(mix, square_bit.pure_states)))
        assert mixedness.more_mixed(vertex, sigma).feasible


def test_equally_mixed_square_reflection(square_bit):
    rho = square_bit.state([0.5, 0.2, 1.0])
    sigma = square_bit.state([-0.5, 0.2, 1.0])
    flag, witness = mixedness.equally_mixed(rho, sigma)
    assert flag
    np.testing.assert_allclose(witness @ rho.vec, sigma.vec, atol=1e-9)


def test_equally_mixed_bit_swap(bit):
    flag, witness = mixedness.equally_mixed(bit.state([0.7, 0.3]), bit.state([0.3, 0.7]))
    assert flag
    np.testing.assert_allclose(witness, [[0, 1], [1, 0]], atol=1e-12)


def test_not_equally_mixed(bit):
    flag, witness = mixedness.equally_mixed(bit.state([0.7, 0.3]), bit.state([0.6, 0.4]))
    assert not flag
    assert witness is None


# -- invariant_state ----------------------------------------------------------

def test_invariant_state_square_center(square_bit):
    chi = mixedness.invariant_state(square_bit)
    np.testing.assert_allclose(chi.vec, [0.0, 0.0, 1.0], atol=1e-10)


def test_invariant_state_classical_uniform():
    for n in (2, 3, 4):
        chi = mixedness.invariant_state(core.make_classical(n))
        np.testing.assert_allclose(chi.vec, np.full(n, 1.0 / n), atol=1e-12)


def test_invariant_state_is_maximum(bit):
    chi = mixedness.invariant_state(bit)
    assert mixedness.more_mixed(bit.state([1.0, 0.0]), chi).feasible


def test_invariant_state_nonunique_group_rejected(square_bit):
    # identity-only group: every state is invariant, averages differ per seed
    broken = core.TheorySystem(dim=3, unit_effect=square_bit.unit_effect,
                               pure_states=square_bit.pure_states,
                               group=(np.eye(3),))
    # the refusal is raised on every call, never cached as a value
    for _ in range(3):
        with pytest.raises(core.StructuralError, match="not unique"):
            mixedness.invariant_state(broken)
    assert "invariant_vector" not in vars(broken)


def test_invariant_state_returns_an_independent_read_only_copy(square_bit):
    first, second = (mixedness.invariant_state(square_bit) for _ in range(2))
    cached = square_bit.invariant_vector
    assert square_bit.invariant_vector is cached
    for chi in (first, second):
        assert np.array_equal(chi.vec, cached)
        assert not np.shares_memory(chi.vec, cached)
        assert not chi.vec.flags.writeable
    assert not np.shares_memory(first.vec, second.vec)
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 1.0


# -- orbit_hull ---------------------------------------------------------------

def test_orbit_hull_octagon(square_bit):
    hull = mixedness.orbit_hull(square_bit.state([0.5, 0.2, 1.0]))
    assert len(hull) == 8


def test_orbit_hull_center_single_point(square_bit):
    hull = mixedness.orbit_hull(square_bit.state([0.0, 0.0, 1.0]))
    assert len(hull) == 1


def test_orbit_hull_trit_vertex(trit):
    hull = mixedness.orbit_hull(trit.state([1.0, 0.0, 0.0]))
    assert len(hull) == 3


def test_orbit_hull_generates_reachable_set(square_bit):
    # cross-check: sigma reachable iff sigma in conv(hull vertices)
    rng = np.random.default_rng(11)
    rho = square_bit.state([0.5, 0.2, 1.0])
    hull = mixedness.orbit_hull(rho)
    for _ in range(30):
        mix = rng.dirichlet(np.ones(4))
        sigma = square_bit.state(sum(w * v for w, v in zip(mix, square_bit.pure_states)))
        reachable = mixedness.more_mixed(rho, sigma).feasible
        in_hull = hull_membership_scipy(hull, sigma.vec)
        assert reachable == in_hull


def _first_hits_loop(points, atol):
    """Reference first-hit rule: drop exact repeats, then one row at a time."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    kept = []
    for i in np.sort(order[first]):
        if np.all(np.max(np.abs(points[kept] - points[i]), axis=1) > atol):
            kept.append(int(i))
    return kept


def _near_duplicate_chains(rng, atol):
    """Rows in runs spaced 0.6 atol apart, so a dropped row's neighbour is kept."""
    base = rng.normal(size=(6, 3))
    steps = rng.integers(0, 5, size=40)
    rows = base[rng.integers(0, 6, size=40)].copy()
    rows[np.arange(40), rng.integers(0, 3, size=40)] += 0.6 * atol * steps
    return np.vstack([rows, rows[rng.integers(0, 40, size=8)]])[rng.permutation(48)]


def test_first_hits_matches_loop_form():
    rng = np.random.default_rng(31)
    cases = [_near_duplicate_chains(rng, atol) for atol in (core.ATOL, 0.1) for _ in range(5)]
    cases += [rng.integers(0, 4, size=(60, 2)) * 0.05 for _ in range(5)]   # ties at atol
    for n in (3, 4, 5, 6):
        group = core.make_classical(n).group
        cases.append(group @ rng.dirichlet(np.ones(n)))
        cases.append(group @ np.resize(np.repeat(rng.dirichlet(np.ones(3)) / 2, 2), n))
    for system in (core.make_square_bit(), core.system_from_dict(_pentagon_dict())):
        cases.append(system.group @ np.append(rng.uniform(-0.3, 0.3, 2), 1.0))
        cases.append(system.group @ np.array([0.0, 0.0, 1.0]))
    for atol in (core.ATOL, 0.05, 0.1):
        for points in cases:
            assert mixedness._first_hits(points, atol) == _first_hits_loop(points, atol)
    chain = np.array([[0.0], [0.6], [1.2], [1.8], [2.4]]) * core.ATOL
    assert mixedness._first_hits(chain, core.ATOL) == [0, 2, 4]


def test_first_hits_on_a_generic_720_point_orbit_in_under_a_millisecond():
    # one sort in place of the 720 x 720 near matrix, which took about 14 ms
    orbit = core.make_classical(6).group @ np.random.default_rng(61).dirichlet(np.ones(6))
    assert mixedness._first_hits(orbit, core.ATOL) == _first_hits_loop(orbit, core.ATOL)
    assert mixedness._first_hits(orbit, core.ATOL) == list(range(720))
    best = min(timeit.repeat(lambda: mixedness._first_hits(orbit, core.ATOL), number=1, repeat=7))
    assert best < 1e-3


def _hull_by_definition(rho, atol=core.ATOL):
    """Orbit hull by its definition, with HiGHS: the distinct orbit points in
    group order (first hit within atol kept), minus every point that lies in
    the hull of the others."""
    distinct = []
    for u in rho.system.group:
        w = u @ rho.vec
        if all(np.max(np.abs(w - v)) > atol for v in distinct):
            distinct.append(w)
    if len(distinct) == 1:
        return distinct
    return [v for i, v in enumerate(distinct)
            if not hull_membership_scipy(distinct[:i] + distinct[i + 1:], v)]


def _hull_cases():
    rng = np.random.default_rng(21)
    cases = []
    for n in (3, 4, 5):                      # generic 6-, 24- and 120-point orbits
        sys = core.make_classical(n)
        cases += [(f"classical-{n}", sys.state(rng.dirichlet(np.ones(n)))) for _ in range(2)]
    six = core.make_classical(6)             # pairwise-equal entries: 90-point orbit
    vals = rng.dirichlet(np.ones(3))
    cases.append(("classical-6", six.state(rng.permutation(np.repeat(vals / 2, 2)))))
    cases.append(("classical-4-ties", core.make_classical(4).state([0.4, 0.4, 0.1, 0.1])))
    for sys in (core.make_square_bit(), core.system_from_dict(_pentagon_dict())):
        for _ in range(3):
            mix = rng.dirichlet(np.ones(len(sys.pure_states)))
            cases.append((sys.name, sys.state(mix @ np.asarray(sys.pure_states))))
    return cases


@pytest.mark.parametrize("name, rho", _hull_cases())
def test_orbit_hull_matches_lp_definition_without_lp(name, rho, lp_calls):
    hull = mixedness.orbit_hull(rho)
    assert lp_calls == []                    # every distinct orbit point is a vertex
    expected = _hull_by_definition(rho)
    assert len(hull) == len(expected)
    # same points in the same order
    np.testing.assert_allclose(np.array(hull), np.array(expected), rtol=0, atol=1e-12)


def test_orbit_questions_refuse_a_set_that_is_not_a_group(square_bit, lp_calls):
    # four rotations and a contraction do not form a group: the contraction
    # does not preserve the averaged Gram form, so the orbit leaves the sphere
    shrink = np.diag([0.1, 0.1, 1.0])
    fake = core.TheorySystem(dim=3, unit_effect=square_bit.unit_effect,
                             pure_states=square_bit.pure_states,
                             group=np.insert(square_bit.group[:4], 4, shrink, axis=0))
    assert not fake._isometric
    rho = fake.state([0.5, 0.2, 1.0])
    with pytest.raises(core.StructuralError, match="averaged Gram form"):
        mixedness.orbit_hull(rho)
    with pytest.raises(core.StructuralError, match="averaged Gram form"):
        mixedness.equally_mixed(rho, fake.state(square_bit.group[1] @ rho.vec))
    assert lp_calls == []


def _reflection_normal(g):
    """Unit normal of the mirror of a reflection g acting on the first two coordinates."""
    vals, vecs = np.linalg.eigh(g[:2, :2])
    assert np.allclose(vals, [-1.0, 1.0])
    return vecs[:, 0]


def _near_symmetric_sweep():
    """400 states per system, each near a point that a group element fixes,
    as (system name, rho, index of that element), from one seeded generator.

    Classical-3..5: two entries of a Dirichlet draw split by a gap of
    10^U(-9.5, -5), swapped by the transposition of the two.  Square bit and
    pentagon: a point of [-0.4, 0.4]^2 moved to gap/2 from a reflection's
    mirror (group[4] for the square, a random odd index for the pentagon).
    """
    rng = np.random.default_rng(7)
    cases = []
    for n in (3, 4, 5):
        system = core.make_classical(n)
        for _ in range(400):
            p = rng.dirichlet(np.ones(n))
            i, j = rng.choice(n, size=2, replace=False)
            gap = 10 ** rng.uniform(-9.5, -5)
            mean = (p[i] + p[j]) / 2
            p[i], p[j] = mean - gap / 2, mean + gap / 2
            swap = np.arange(n)
            swap[[i, j]] = swap[[j, i]]
            k = system._permutation_index[tuple(swap.tolist())]
            cases.append((system.name, system.state(p), k))
    pentagon = core.system_from_dict(_pentagon_dict())
    for system in (core.make_square_bit(), pentagon):
        for _ in range(400):
            k = 4 if system is not pentagon else 2 * int(rng.integers(5)) + 1
            normal = _reflection_normal(system.group[k])
            x = rng.uniform(-0.4, 0.4, size=2)
            gap = 10 ** rng.uniform(-9.5, -5)
            x += (gap / 2 - x @ normal) * normal
            cases.append((system.name, system.state(np.append(x, 1.0)), k))
    return cases


def test_orbit_questions_on_a_near_symmetric_sweep(lp_calls):
    # every orbit point is a vertex (the orbit lies on one sphere), so the hull
    # is exactly the first-hit distinct points; on every tenth state HiGHS
    # finds the two near-symmetric distinct points, rho and g rho (g rho only
    # when it is not a near-repeat of rho), in their hull (one HiGHS solve
    # takes about 3 ms, so every point of every state would take minutes);
    # sigma = g rho is always found in the orbit, with its witness
    names = set()
    for t, (name, rho, k) in enumerate(_near_symmetric_sweep()):
        names.add(name)
        orbit = rho.system.group @ rho.vec
        distinct = _first_hits_loop(orbit, core.ATOL)
        assert mixedness._first_hits(orbit, core.ATOL) == distinct
        hull = mixedness.orbit_hull(rho)
        np.testing.assert_array_equal(np.array(hull), orbit[distinct])
        for i in ({0, k} & set(distinct)) if t % 10 == 0 else ():
            assert hull_membership_scipy(hull, orbit[i]), (name, rho.vec)
        sigma = rho.system.state(orbit[k])
        flag, witness = mixedness.equally_mixed(rho, sigma)
        assert flag, (name, rho.vec)
        assert np.max(np.abs(witness @ rho.vec - sigma.vec)) <= core.ATOL
    assert names == {"classical-3", "classical-4", "classical-5", "square-bit", "pentagon-bit"}
    assert lp_calls == []


@pytest.mark.parametrize("vec", [[-0.003058153545617031, 0.002221877718167908, 1.0],
                                 [0.5, 1e-9, 1.0]],
                         ids=["short-hull", "weak-certificate"])
def test_pentagon_orbit_hull_reproducers(vec, lp_calls):
    # ten distinct orbit points, each a vertex; the parent's margin certificate
    # and LP fallback kept 4 of them on the first and raised on the second
    rho = core.system_from_dict(_pentagon_dict()).state(vec)
    orbit = rho.system.group @ rho.vec
    hull = mixedness.orbit_hull(rho)
    np.testing.assert_array_equal(np.array(hull), orbit[_first_hits_loop(orbit, core.ATOL)])
    assert len(hull) == 10
    assert lp_calls == []


def test_equally_mixed_reproducer_on_a_pentagon_reflection(lp_calls):
    pentagon = core.system_from_dict(_pentagon_dict())
    rho = pentagon.state([-0.11378023420600876, -0.3501795526247793, 1.0])
    sigma = pentagon.state(pentagon.group[4] @ rho.vec)
    flag, witness = mixedness.equally_mixed(rho, sigma)
    assert flag
    assert np.max(np.abs(witness @ rho.vec - sigma.vec)) <= core.ATOL
    assert lp_calls == []


def test_equally_mixed_looks_up_both_orbits():
    # a turn of the pentagon stretches max-norm distances: sigma sits 0.9 ATOL
    # from g rho, but g^-1 sigma sits 1.13 ATOL from rho, so rho is not found in
    # sigma's orbit and the pair is not reported equally mixed
    pentagon = core.system_from_dict(_pentagon_dict())
    rho = pentagon.state([0.3, 0.1, 1.0])
    g = pentagon.group[2]                    # the turn by 72 degrees
    sigma = pentagon.state(g @ rho.vec + np.array([0.9, 0.9, 0.0]) * core.ATOL)
    assert np.max(np.abs(np.linalg.inv(g) @ sigma.vec - rho.vec)) > core.ATOL
    assert mixedness.equally_mixed(rho, sigma) == (False, None)
    flag, witness = mixedness.equally_mixed(rho, pentagon.state(g @ rho.vec))
    assert flag and np.array_equal(witness, g)


def _equally_mixed_by_lp(rho, sigma):
    """Reference: each state more mixed than the other, by two orbit LPs."""
    return (mixedness.feasible_convex_combination(rho.system.group @ rho.vec, sigma.vec).feasible
            and mixedness.feasible_convex_combination(sigma.system.group @ sigma.vec,
                                                      rho.vec).feasible)


@pytest.mark.parametrize("system", [core.make_square_bit(), core.system_from_dict(_pentagon_dict())],
                         ids=lambda s: s.name)
def test_equally_mixed_agrees_with_the_two_lp_definition(system):
    # random pairs, group images, and turns by angles outside the group,
    # which keep the Gram norm but leave the orbit
    rng = np.random.default_rng(41)
    verts = np.asarray(system.pure_states)
    for trial in range(60):
        rho = system.state(rng.dirichlet(np.ones(len(verts))) @ verts)
        if trial % 3 == 0:
            sigma = system.state(rng.dirichlet(np.ones(len(verts))) @ verts)
        elif trial % 3 == 1:
            sigma = system.state(system.group[rng.integers(len(system.group))] @ rho.vec)
        else:
            c, s = np.cos(t := rng.uniform(0.1, 0.5)), np.sin(t)
            rho = system.state((rho.vec + system.invariant_vector) / 2)   # stays inside on turning
            sigma = system.state(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]) @ rho.vec)
        flag, witness = mixedness.equally_mixed(rho, sigma)
        assert flag == _equally_mixed_by_lp(rho, sigma)
        assert flag == (trial % 3 == 1)
        if flag:
            assert np.max(np.abs(witness @ rho.vec - sigma.vec)) <= core.ATOL
        else:
            assert witness is None


def _invariant_cases():
    return [core.make_classical(n) for n in (2, 3, 4, 5)] + [
        core.make_square_bit(), core.system_from_dict(_pentagon_dict())]


@pytest.mark.parametrize("sys", _invariant_cases(), ids=lambda s: s.name)
def test_invariant_state_rebuilt_by_uniform_channel(sys, lp_calls):
    chi = mixedness.invariant_state(sys)
    assert lp_calls == []
    n = len(sys.group)
    uniform = mixedness.RaReChannel(sys, tuple((1.0 / n, k) for k in range(n)))
    for v in sys.pure_states:
        np.testing.assert_allclose(uniform.apply(sys.state(v)).vec, chi.vec,
                                   rtol=0, atol=core.ATOL)


_RARE_SYSTEMS = [core.make_classical(n) for n in (3, 4, 5)] + [
    core.make_square_bit(), core.system_from_dict(_pentagon_dict())]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(_RARE_SYSTEMS), st.data())
def test_rare_image_is_certified_more_mixed(system, data):
    n_verts, n_group = len(system.pure_states), len(system.group)
    mix = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_verts,
                                      max_size=n_verts).filter(lambda w: sum(w) > 0.1)))
    rho = system.state((mix / mix.sum()) @ np.asarray(system.pure_states))
    picks = data.draw(st.lists(st.integers(0, n_group - 1), min_size=1, max_size=4))
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(picks),
                                      max_size=len(picks))))
    channel = mixedness.RaReChannel(system, tuple(zip(raw / raw.sum(), picks)))
    sigma = channel.apply(rho)
    cert = mixedness.more_mixed(rho, sigma)
    assert cert.feasible
    rebuilt = cert.weights @ (system.group @ rho.vec)
    assert np.max(np.abs(rebuilt - sigma.vec)) <= mixedness.RESIDUAL_TOL


# -- majorizes ---------------------------------------------------------------

def test_majorizes_examples():
    assert mixedness.majorizes([0.7, 0.3], [0.6, 0.4])
    assert mixedness.majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert not mixedness.majorizes([0.5, 0.5], [0.7, 0.3])


def test_majorizes_rejects_unnormalized():
    with pytest.raises(core.StructuralError):
        mixedness.majorizes([0.7, 0.7], [0.5, 0.5])


# -- birkhoff_rare_synthesis --------------------------------------------------

def test_birkhoff_bit_example(bit):
    channel = mixedness.birkhoff_rare_synthesis([0.7, 0.3], [0.6, 0.4])
    entries = dict((k, w) for w, k in channel.entries)
    assert abs(entries[0] - 0.75) < 1e-9   # identity
    assert abs(entries[1] - 0.25) < 1e-9   # swap


def test_birkhoff_vertex_to_uniform():
    p = np.array([1.0, 0.0, 0.0])
    q = np.full(3, 1.0 / 3.0)
    channel = mixedness.birkhoff_rare_synthesis(p, q)
    np.testing.assert_allclose(channel.matrix() @ p, q, atol=1e-9)


def test_birkhoff_noop():
    channel = mixedness.birkhoff_rare_synthesis([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
    assert len(channel.entries) == 1
    assert channel.entries[0][1] == 0  # identity permutation


def test_birkhoff_drops_rounding_dust():
    # q is a permutation of p up to 1e-15, which the walk takes as the vertex itself
    channel = mixedness.birkhoff_rare_synthesis([0.5, 0.3, 0.2], [0.2 + 1e-15, 0.5 - 1e-15, 0.3])
    assert core.make_classical(3)._permutation_index[(2, 0, 1)] == 4
    assert channel.entries == ((1.0, 4),)


def test_birkhoff_builds_the_classical_system_once_per_n():
    first = mixedness.birkhoff_rare_synthesis([0.7, 0.2, 0.1], [0.4, 0.35, 0.25])
    again = mixedness.birkhoff_rare_synthesis([0.5, 0.5, 0.0], [0.4, 0.3, 0.3])
    assert again.system is first.system
    fresh = core.make_classical(3)
    assert first.system.name == fresh.name
    np.testing.assert_array_equal(first.system.group, fresh.group)


def test_birkhoff_requires_majorization():
    with pytest.raises(core.StructuralError):
        mixedness.birkhoff_rare_synthesis([0.5, 0.5], [0.7, 0.3])


def test_birkhoff_random_instances_support_and_residual():
    rng = np.random.default_rng(8)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(n))
        # build p majorizing q by pushing weight upward
        channel_free = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        p = np.sort(q)[::-1]
        for _ in range(int(rng.integers(0, 3))):
            p = np.sort(p * 0.5 + channel_free * 0.5)[::-1]
            p[0] += 1.0 - p.sum()
        if not mixedness.majorizes(p, q):
            continue
        channel = mixedness.birkhoff_rare_synthesis(p, q)
        np.testing.assert_allclose(channel.matrix() @ np.asarray(p), q, atol=1e-9)
        assert len(channel.entries) <= n


def test_classical_permutation_index_is_the_lexicographic_order():
    # Birkhoff witnesses index make_classical(n)'s group by this map; readers of
    # a channel (the benchmark's checker among them) take index k to be the
    # k-th permutation of itertools.permutations(range(n))
    for n in range(1, 7):
        index = core.make_classical(n)._permutation_index
        perms = list(itertools.permutations(range(n)))
        assert [index[perm] for perm in perms] == list(range(len(perms)))


def test_birkhoff_still_refuses_n_7_after_its_majorization_check():
    # make_classical stores the n! matrices and refuses n > 6; a pair that
    # fails majorization is refused as such first
    uniform, vertex = np.full(7, 1.0 / 7.0), np.eye(7)[0]
    with pytest.raises(core.StructuralError):
        mixedness.birkhoff_rare_synthesis(uniform, vertex)
    with pytest.raises(core.CapacityError):
        mixedness.birkhoff_rare_synthesis(vertex, uniform)


def test_walk_refuses_n_above_its_bound_before_building_a_subset_table():
    n = mixedness.WALK_MAX_N
    vertex, uniform = np.eye(n)[0], np.full(n, 1.0 / n)
    terms, residual = mixedness._walk_witness(vertex, uniform, tuple)
    assert len(terms) <= n and residual <= WITNESS_TOL
    cached = mixedness._subsets.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(core.CapacityError):
            mixedness._walk_witness(np.eye(n + 1)[0], np.full(n + 1, 1.0 / (n + 1)), tuple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table at n + 1 holds (n + 1)(2^(n+1) - 2) floats, about 18 MB
    assert peak < 2 ** 16
    assert mixedness._subsets.cache_info().currsize == cached


def test_birkhoff_witness_has_at_most_n_distinct_terms():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 2 * n)))]
        d = sum(w * np.eye(n)[perm] for w, perm in zip(rng.dirichlet(np.ones(len(perms))), perms))
        p = rng.dirichlet(np.ones(n))
        q = d @ p
        channel = mixedness.birkhoff_rare_synthesis(p, q)
        indices = [k for _, k in channel.entries]
        assert len(indices) == len(set(indices)) <= n
        assert np.max(np.abs(channel.matrix() @ p - q)) <= mixedness.WITNESS_TOL
        assert mixedness.birkhoff_rare_synthesis(p, q).entries == channel.entries


def test_birkhoff_reproduction_near_a_face():
    p = [0.20880983241829282, 0.703903125233618, 0.08728704234808912]
    q = [0.46551724482329776, 0.08728704230592764, 0.4471957128707746]
    assert mixedness.majorizes(p, q)
    channel = mixedness.birkhoff_rare_synthesis(p, q)
    assert np.max(np.abs(channel.matrix() @ p - q)) <= mixedness.WITNESS_TOL


def _pushed_face_points(rng, count):
    """Points on a facet of p's permutohedron, pushed <= 1e-10 off it, that p majorizes.

    A facet point mixes vertices that put the |T| largest entries of p on one
    set T; some p get ties by rounding to eighths.
    """
    while count:
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n))
        if rng.random() < 0.3:
            p = np.round(p * 8) / 8
            p /= p.sum()
        k = int(rng.integers(1, n))
        order = rng.permutation(n)
        q = np.zeros(n)
        for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
            vertex = np.empty(n)
            vertex[np.concatenate([rng.permutation(order[:k]), rng.permutation(order[k:])])] = \
                np.sort(p)[::-1]
            q += w * vertex
        push = rng.normal(size=n)
        push -= push.mean()
        q += 10.0 ** rng.uniform(-14, -10) * push / np.abs(push).max()
        if q.min() >= 0 and mixedness.majorizes(p, q):
            count -= 1
            yield p, q


def _walk_reference(p, q):
    """The permutohedron walk written out, its subset rows rebuilt on every call: the reference
    for the S_n instance of ``_caratheodory_walk`` (``_walk_witness``) and its cached rows."""
    n = p.shape[0]
    rows = (np.arange(1, 2 ** n - 1)[:, None] >> np.arange(n)) & 1
    bound = np.cumsum(np.sort(p)[::-1])[rows.sum(axis=1) - 1]
    by_size = np.argsort(-p, kind="stable")
    x, left = q.copy(), 1.0
    weights = {}
    for step in range(n):
        perm = np.empty(n, dtype=np.intp)
        perm[np.argsort(-x, kind="stable")] = by_size
        v = p[perm]
        rise = rows @ (x - v)
        slack = bound - rows @ x
        limits = (left * rise > mixedness.ZERO_TOL) & (left * slack > mixedness.ZERO_TOL)
        if step == n - 1 or not limits.any():
            break
        lam = 1.0 + np.min(slack[limits] / rise[limits])
        key = tuple(perm.tolist())
        weights[key] = weights.get(key, 0.0) + left * (1.0 - 1.0 / lam)
        left /= lam
        x = v + lam * (x - v)
    key = tuple(perm.tolist())
    weights[key] = weights.get(key, 0.0) + left
    return weights


def test_walk_with_cached_subsets_matches_the_uncached_walk_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=4242))
    pairs = list(_pushed_face_points(rng, 100))
    for n in range(2, 7):
        for _ in range(40):
            perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 2 * n)))]
            d = sum(w * np.eye(n)[perm] for w, perm in zip(rng.dirichlet(np.ones(len(perms))), perms))
            p = rng.dirichlet(np.ones(n))
            pairs.append((p, d @ p))
    assert {len(p) for p, _ in pairs} == set(range(2, 7))
    for p, q in pairs:
        terms, _ = mixedness._walk_witness(p, q, tuple)
        ref = _walk_reference(p, q * (p.sum() / q.sum()))
        assert [perm for _, perm in terms] == list(ref)
        assert np.array([w for w, _ in terms]).tobytes() == np.array(list(ref.values())).tobytes()
    rows, size_index = mixedness._subsets(4)
    assert mixedness._subsets(4) is mixedness._subsets(4)
    assert not rows.flags.writeable and not size_index.flags.writeable


def test_birkhoff_never_raises_near_the_boundary():
    rng = np.random.default_rng(2)
    for p, q in _pushed_face_points(rng, 1500):
        channel = mixedness.birkhoff_rare_synthesis(p, q)
        assert len(channel.entries) <= len(p)
        assert np.max(np.abs(channel.matrix() @ p - q)) <= mixedness.WITNESS_TOL


# -- preorder properties ------------------------------------------------------

def test_more_mixed_reflexive(square_bit, trit):
    rng = np.random.default_rng(5)
    for sys in (square_bit, trit):
        for _ in range(10):
            mix = rng.dirichlet(np.ones(len(sys.pure_states)))
            rho = sys.state(sum(w * v for w, v in zip(mix, sys.pure_states)))
            assert mixedness.more_mixed(rho, rho).feasible


def test_more_mixed_transitive(trit):
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        rho = trit.state(p)
        chan1 = mixedness.RaReChannel(trit, ((0.6, 0), (0.4, int(rng.integers(1, 6)))))
        sigma = chan1.apply(rho)
        chan2 = mixedness.RaReChannel(trit, ((0.7, 0), (0.3, int(rng.integers(1, 6)))))
        tau = chan2.apply(sigma)
        if mixedness.more_mixed(rho, sigma).feasible and \
                mixedness.more_mixed(sigma, tau).feasible:
            hits += 1
            assert mixedness.more_mixed(rho, tau).feasible
    assert hits > 100


def test_verdict_invariant_under_group_conjugation(square_bit):
    rng = np.random.default_rng(7)
    for _ in range(25):
        mix = rng.dirichlet(np.ones(4))
        rho = square_bit.state(sum(w * v for w, v in zip(mix, square_bit.pure_states)))
        mix2 = rng.dirichlet(np.ones(4))
        sigma = square_bit.state(sum(w * v for w, v in zip(mix2, square_bit.pure_states)))
        base = mixedness.more_mixed(rho, sigma).feasible
        for u in square_bit.group:
            moved = mixedness.more_mixed(
                square_bit.state(u @ rho.vec), square_bit.state(u @ sigma.vec)).feasible
            assert moved == base


# -- classical more_mixed: majorization and the permutohedron walk -----------

def _assert_separates(system, p, q, cert):
    """An infeasible verdict's functional f separates sigma from rho's orbit:
    f(sigma) - max_g f(g rho) is the certificate's gap, and positive, with
    sigma scaled to rho's unit-effect value."""
    u = system.unit_effect
    target = q * ((u @ p) / (u @ q))
    gap = cert.functional @ target - np.max((system.group @ p) @ cert.functional)
    assert gap > 0.0 and abs(gap - cert.gap) <= 1e-15


def _classical_pairs(rng, n, count):
    """Random pairs, RaRe images, and sigma pushed 1e-13..1e-8 outside rho's permutohedron."""
    eye = np.eye(n)
    for _ in range(count):
        p = rng.dirichlet(np.ones(n))
        yield p, rng.dirichlet(np.ones(n))
        perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 5)))]
        yield p, sum(w * eye[perm] @ p for w, perm in zip(rng.dirichlet(np.ones(len(perms))), perms))
        q = np.sort(p)[::-1]
        gap = 10.0 ** rng.uniform(-13, -8)
        q[0] += gap              # the top partial sum of q now exceeds p's by gap
        q[-1] -= gap
        yield p, rng.permutation(q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classical_more_mixed_is_majorization_with_a_walk_witness(n, lp_calls):
    system = core.make_classical(n)
    rng = np.random.default_rng(100 + n)
    for p, q in _classical_pairs(rng, n, 25):
        cert = mixedness.more_mixed(system.state(p), system.state(q))
        assert cert.feasible == mixedness.majorizes(p, q)
        if cert.feasible:
            assert cert.weights.shape == (len(system.group),)
            assert np.count_nonzero(cert.weights) <= n
            rebuilt = cert.weights @ (system.group @ p)
            assert np.max(np.abs(rebuilt - q)) <= cert.residual + 1e-15
            assert cert.residual <= mixedness.WITNESS_TOL
            assert cert.functional is None and cert.gap is None
        else:
            # the Ky Fan functional: sigma's k largest entries at the first
            # partial sum that fails, separating by that sum's excess
            assert cert.weights is None and cert.residual == float("inf")
            k = int(cert.functional.sum())
            assert set(cert.functional.tolist()) <= {0.0, 1.0} and 1 <= k < n
            assert abs(cert.functional @ q - np.sort(q)[::-1][:k].sum()) <= 1e-15
            excess = np.cumsum(np.sort(q)[::-1]) * (p.sum() / q.sum()) - np.cumsum(np.sort(p)[::-1])
            assert excess[k - 1] > mixedness.MAJORIZATION_TOL
            assert (excess[:k - 1] <= mixedness.MAJORIZATION_TOL).all()
            assert abs(cert.gap - excess[k - 1]) <= 1e-15
            _assert_separates(system, p, q, cert)
    assert lp_calls == []


def test_classical_more_mixed_keeps_every_orbit_lp_verdict():
    # the orbit LP, which classical more_mixed no longer solves, is the
    # reference: its raises become verdicts, and each verdict it gives stays,
    # except a "feasible" for a sigma outside the hull by more than the
    # majorization tolerance but within what the LP's witness allows (the top
    # partial sums of a mix of p's permutations miss sigma's by at most n times
    # the mix's residual); such flips stay rare (3 to 7 in 3000 pairs on wider
    # sweeps), and the bound below catches a rising rate
    raised, verdicts, flips = 0, 0, 0
    for n in range(2, 7):
        system = core.make_classical(n)
        rng = np.random.default_rng(200 + n)
        for p, q in _classical_pairs(rng, n, 40):
            cert = mixedness.more_mixed(system.state(p), system.state(q))
            try:
                lp = mixedness.feasible_convex_combination(system.group @ p, q)
            except mixedness.IllConditionedError:
                raised += 1
                continue
            verdicts += 1
            if cert.feasible != lp.feasible:
                flips += 1
                excess = np.max(np.cumsum(np.sort(q)[::-1]) - np.cumsum(np.sort(p)[::-1]))
                assert lp.feasible and mixedness.MAJORIZATION_TOL < excess <= n * lp.residual
    assert raised > 0
    assert flips <= verdicts // 100


def test_classical_more_mixed_takes_states_the_state_check_accepts():
    # entries may sit ATOL below zero and sums ATOL off one; majorization and
    # the walk take the clipped, rescaled vectors, so a RaRe image stays
    # feasible, and the weights rebuild the given sigma within WITNESS_TOL
    # plus how far the rescaling moved each state
    trit = core.make_classical(3)
    cert = mixedness.more_mixed(trit.state([0.5, 0.3, 0.2 + 5e-10]),
                                trit.state([0.4, 0.4, 0.2 + 5e-10]))
    assert cert.feasible and cert.residual <= mixedness.WITNESS_TOL
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        system = core.make_classical(n)
        for _ in range(20):
            p = np.append(rng.dirichlet(np.ones(n - 1)), 0.0)
            p = p[rng.permutation(n)]
            q = 0.5 * p[rng.permutation(n)] + 0.5 * p[rng.permutation(n)]
            p[p == 0] = -0.4 * core.ATOL
            p *= 1 + rng.uniform(-0.5, 0.5) * core.ATOL
            q *= 1 + rng.uniform(-0.9, 0.9) * core.ATOL
            cert = mixedness.more_mixed(system.state(p), system.state(q))
            assert cert.feasible
            rebuilt = cert.weights @ (system.group @ p)
            assert np.max(np.abs(rebuilt - q)) <= cert.residual + 1e-15 <= 4 * core.ATOL


def test_classical_walk_aims_at_sigma_on_rhos_plane():
    # sums 2.7e-10 below and 9.4e-10 above one: the permutohedron of rho lies in
    # the plane of rho's sum, and a walk aimed at the given sigma, off that
    # plane, missed it by 3.2e-9, more than WITNESS_TOL + |sum rho - sum sigma|
    quart = core.make_classical(4)
    p = np.array([0.11161604414354723, 0.2266806922163896, 0.10263378615132596,
                  0.5590694772160836])
    q = np.array([0.5156215190757876, 0.1040379919876619, 0.21046599118523726,
                  0.16987449869130064])
    cert = mixedness.more_mixed(quart.state(p), quart.state(q))
    assert cert.feasible
    assert cert.residual <= mixedness.WITNESS_TOL + abs(p.sum() - q.sum())
    # a state against its own copy at a sum 1.8 SUM_TOL higher: the identity
    # alone misses the top entry by 1.6e-9, above WITNESS_TOL by itself
    bit, top = core.make_classical(2), np.array([0.9, 0.1])
    p, q = top * (1 - 0.9 * core.SUM_TOL), top * (1 + 0.9 * core.SUM_TOL)
    cert = mixedness.more_mixed(bit.state(p), bit.state(q))
    assert cert.feasible and mixedness.WITNESS_TOL < cert.residual
    assert cert.residual <= mixedness.WITNESS_TOL + abs(p.sum() - q.sum())


def test_classical_more_mixed_weights_index_a_shuffled_group():
    data = core.system_to_dict(core.make_classical(4))
    order = np.random.default_rng(4).permutation(24)
    data["group"] = [data["group"][k] for k in order]
    system = core.system_from_dict(data)
    assert system._permutation_index is not None
    p, q = np.array([0.5, 0.3, 0.15, 0.05]), np.array([0.2, 0.25, 0.3, 0.25])
    cert = mixedness.more_mixed(system.state(p), system.state(q))
    assert cert.feasible
    rebuilt = cert.weights @ (system.group @ p)
    assert np.max(np.abs(rebuilt - q)) <= mixedness.WITNESS_TOL


def test_classical_more_mixed_with_a_cyclic_group_stays_on_the_lp(lp_calls):
    # Z_3 on classical-3 reaches only cyclic shifts, so a transposition image
    # is majorized yet outside the orbit hull
    trit = core.make_classical(3)
    cyclic = core.TheorySystem(dim=3, unit_effect=trit.unit_effect,
                               pure_states=trit.pure_states,
                               group=(np.eye(3), np.eye(3)[[1, 2, 0]], np.eye(3)[[2, 0, 1]]))
    assert core.validate_system(cyclic) == [] and cyclic._permutation_index is None
    p = np.array([0.6, 0.3, 0.1])
    q = p[[1, 0, 2]]
    assert mixedness.majorizes(p, q)
    assert not mixedness.more_mixed(cyclic.state(p), cyclic.state(q)).feasible
    assert lp_calls == [3]
    assert mixedness.more_mixed(trit.state(p), trit.state(q)).feasible
    assert lp_calls == [3]


def test_square_bit_more_mixed_with_its_turns_stays_on_the_lp(square_bit, lp_calls):
    # Z_4 (the four turns) holds no reflection, so it keeps the orbit LP; a
    # flip image of rho lies on the orbit's circle but off its four points
    turns = core.TheorySystem(dim=3, unit_effect=square_bit.unit_effect,
                              pure_states=square_bit.pure_states, group=square_bit.group[:4])
    assert core.validate_system(turns) == [] and turns._chamber is None
    rho = np.array([0.5, 0.2, 1.0])
    sigma = square_bit.group[4] @ rho
    cert = mixedness.more_mixed(turns.state(rho), turns.state(sigma))
    assert not cert.feasible and cert.functional is None
    assert lp_calls == [4]
    assert mixedness.more_mixed(square_bit.state(rho), square_bit.state(sigma)).feasible
    assert lp_calls == [4]


def test_a_user_system_without_reflections_stays_on_the_lp(square_bit, lp_calls):
    # the half turn alone, as a theory file: a group of two with no reflection
    # (rank(I - g) = 2), so two points of the orbit of z share every chamber
    data = core.system_to_dict(square_bit)
    data["group"] = [data["group"][0], data["group"][2]]
    half = core.system_from_dict(data)
    assert half._chamber is None and half._permutation_index is None
    rho, sigma = half.state([0.5, 0.2, 1.0]), half.state([-0.1, -0.04, 1.0])
    cert = mixedness.more_mixed(rho, sigma)
    assert cert.feasible and lp_calls == [2]
    np.testing.assert_allclose(cert.weights, [0.4, 0.6], atol=1e-12)


def test_permutation_index_only_on_the_full_classical_group(square_bit, trit):
    assert square_bit._permutation_index is None
    assert core.system_from_dict(_pentagon_dict())._permutation_index is None
    assert trit._permutation_index == {perm: k for k, perm in
                                       enumerate(itertools.permutations(range(3)))}
    assert core.make_classical(1)._permutation_index == {(0,): 0}
    # a repeated element in place of one permutation is not the full group
    doubled = core.TheorySystem(dim=3, unit_effect=trit.unit_effect,
                                pure_states=trit.pure_states,
                                group=trit.group[np.r_[:5, 0]])
    assert doubled._permutation_index is None


def test_rare_channel_from_certificate(square_bit):
    # on the reflection path the certificate's weights over the group are the
    # RaRe channel: mixing the images of rho with them rebuilds sigma
    pentagon = core.system_from_dict(_pentagon_dict())
    for system, x, y in ((square_bit, [1.0, 1.0], [0.25, 0.1]),
                         (pentagon, [1.0, 0.0], [0.2, -0.1])):
        rho, sigma = system.state([*x, 1.0]), system.state([*y, 1.0])
        cert = mixedness.more_mixed(rho, sigma)
        assert cert.feasible and system._permutation_index is None
        rebuilt = cert.weights @ (system.group @ rho.vec)
        assert np.max(np.abs(rebuilt - sigma.vec)) <= mixedness.WITNESS_TOL


def test_validate_state_inside_and_outside(square_bit):
    assert mixedness.validate_state(square_bit.state([0.3, -0.4, 1.0])) is None
    with pytest.raises(core.StructuralError, match="outside the state space"):
        mixedness.validate_state(square_bit.state([1.5, 0.0, 1.0]))
