import gc
import math
import weakref

import numpy as np
import pytest

from gptpurity import core, mixedness, monotones
from gptpurity.core import StructuralError
from gptpurity.monotones import ConvexScalarFn
from gptpurity.quantum import DensityMatrix

from oracles import (measurement_key, measurement_polytope_vertices, op_norm_bruteforce,
                     random_rank1_povm_entropy, shannon_bits)
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


def _random_state(sys, rng):
    mix = rng.dirichlet(np.ones(len(sys.pure_states)))
    return sys.state(sum(w * v for w, v in zip(mix, sys.pure_states)))


# -- f_purity -----------------------------------------------------------------

def test_trit_square_purity_fine_grained(trit):
    report = monotones.f_purity(trit.state([0.5, 0.3, 0.2]), ConvexScalarFn.square())
    assert abs(report.value - 0.38) < 1e-12
    # the witness reproduces the value
    probs = report.witness.outcome_probs(trit.state([0.5, 0.3, 0.2]))
    assert abs(sum(p * p for p in probs) - report.value) < 1e-10


def test_classical_pure_measurement_is_fine_grained():
    # the simplex has one vertex measurement, the basis effects in order, so
    # the f-purities are sum_i f(p_i) bit for bit
    rng = np.random.default_rng(37)
    for n in range(2, 7):
        system = core.make_classical(n)
        (meas,) = system.pure_measurements
        assert [a.covec.tolist() for a in meas.effects] == np.eye(n).tolist()
        p = rng.dirichlet(np.ones(n))
        for f in (ConvexScalarFn.square(), ConvexScalarFn.xlogx()):
            report = monotones.f_purity(system.state(p), f)
            assert report.value == float(sum(f(x) for x in p))
            assert report.witness is meas


_SYSTEMS = {"square-bit": core.make_square_bit,
            "pentagon": lambda: core.system_from_dict(_pentagon_dict()),
            "classical-3": lambda: core.make_classical(3)}


@pytest.mark.parametrize("name, count", [("square-bit", 2), ("pentagon", 5),
                                         ("classical-3", 1)])
def test_pure_measurements_are_the_oracle_vertices(name, count):
    system = _SYSTEMS[name]()
    measurements = system.pure_measurements
    assert len(measurements) == count
    vertices = np.column_stack(system.pure_states)
    for meas in measurements:
        covecs = np.array([a.covec for a in meas.effects])
        assert np.max(np.abs(covecs.sum(axis=0) - system.unit_effect)) <= core.ATOL
        values = covecs @ vertices
        assert values.min() >= -core.ATOL and values.max() <= 1.0 + core.ATOL
    keys = {measurement_key([a.covec for a in meas.effects]) for meas in measurements}
    oracle = measurement_polytope_vertices(system, seed=41)
    assert len(oracle) == count
    assert {measurement_key(vertex) for vertex in oracle} <= keys
    # the maximum over the returned vertices is the supremum: no vertex the
    # oracle finds scores higher on any state
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho = _random_state(system, rng)
        for f in (ConvexScalarFn.square(), ConvexScalarFn.xlogx()):
            value = monotones.f_purity(rho, f).value
            for vertex in oracle:
                assert value >= sum(f(a @ rho.vec) for a in vertex) - 1e-12


def test_f_purity_refuses_inexact_f(trit):
    rho = trit.state([0.5, 0.3, 0.2])
    wavy = ConvexScalarFn("wavy", lambda x: math.sin(10 * x))
    shifted = ConvexScalarFn("shifted", lambda x: x * x + 1.0)
    assert not wavy.convex and shifted.convex
    for f in (wavy, shifted):
        with pytest.raises(ValueError, match="convex f with f\\(0\\) = 0"):
            monotones.f_purity(rho, f)


def test_square_center_xlogx(square_bit):
    center = square_bit.state([0.0, 0.0, 1.0])
    report = monotones.f_purity(center, ConvexScalarFn.xlogx())
    assert abs(report.value - (-1.0)) < 1e-9


def test_pure_state_square_purity_is_one(square_bit):
    vertex = square_bit.state([1.0, 1.0, 1.0])
    report = monotones.f_purity(vertex, ConvexScalarFn.square())
    assert abs(report.value - 1.0) < 1e-9


# -- measurement entropy ------------------------------------------------------

def test_qubit_maximally_mixed_entropy():
    report = monotones.measurement_entropy(DensityMatrix.maximally_mixed(2))
    assert abs(report.value - 1.0) < 1e-9


def test_pure_quantum_state_entropy_zero():
    report = monotones.measurement_entropy(DensityMatrix.pure([1, 0, 0]))
    assert abs(report.value) < 1e-9


def test_square_center_entropy_one_bit(square_bit):
    report = monotones.measurement_entropy(square_bit.state([0.0, 0.0, 1.0]))
    assert abs(report.value - 1.0) < 1e-9


def test_sampled_rank1_povms_never_beat_spectrum():
    # spot-check of the adopted projective-optimality assumption
    rng = np.random.default_rng(13)
    for d in (2, 3):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        spectrum_entropy = shannon_bits(np.linalg.eigvalsh(rho))
        sampled = random_rank1_povm_entropy(rho, rng, n_outcomes=d + 2, samples=300)
        assert sampled >= spectrum_entropy - 1e-9


def test_quantum_classical_entropy_agreement(trit):
    p = [0.5, 0.3, 0.2]
    quantum_val = monotones.measurement_entropy(DensityMatrix.diagonal(p)).value
    classical_val = monotones.measurement_entropy(trit.state(p)).value
    assert abs(quantum_val - classical_val) < 1e-10


# -- operational norm ---------------------------------------------------------

def test_op_norm_bit_examples(bit):
    assert abs(monotones.op_norm_distance(bit.state([1.0, 0.0])) - 0.5) < 1e-10
    assert abs(monotones.op_norm_distance(bit.state([0.75, 0.25])) - 0.25) < 1e-10
    assert abs(monotones.op_norm_distance(bit.state([0.5, 0.5]))) < 1e-10


def test_op_norm_matches_bruteforce(square_bit, trit):
    rng = np.random.default_rng(17)
    for sys in (square_bit, trit):
        chi = mixedness.invariant_state(sys)
        for _ in range(10):
            rho = _random_state(sys, rng)
            value = monotones.op_norm_distance(rho)
            brute = 0.5 * op_norm_bruteforce(sys, rho.vec - chi.vec)
            assert abs(value - brute) < 1e-9


def test_op_norm_report_witness(bit):
    report = monotones.op_norm_report(bit.state([1.0, 0.0]))
    delta = np.array([0.5, -0.5])
    sup_val = np.array(report.witness["sup_effect"]) @ delta
    inf_val = np.array(report.witness["inf_effect"]) @ delta
    assert abs(0.5 * (sup_val - inf_val) - report.value) < 1e-10


@pytest.mark.parametrize("system", [core.make_classical(n) for n in range(2, 7)]
                         + [core.make_square_bit(), core.system_from_dict(_pentagon_dict())],
                         ids=lambda s: s.name)
def test_op_norm_matches_the_bruteforce_oracle(system):
    rng = np.random.default_rng(41)
    verts = list(system.pure_states)
    # vertices, midpoints of adjacent vertices (facet midpoints on the
    # polygons and edge midpoints on the simplices) and random mixtures
    states = verts + [(v + w) / 2 for v, w in zip(verts, verts[1:] + verts[:1])]
    states += [rng.dirichlet(np.ones(len(verts))) @ np.asarray(verts) for _ in range(40)]
    u = system.unit_effect
    for vec in states:
        report = monotones.op_norm_report(system.state(vec))
        delta = vec - mixedness.invariant_state(system).vec
        assert abs(report.value - 0.5 * op_norm_bruteforce(system, delta)) <= 1e-12
        top = np.array(report.witness["sup_effect"])
        bottom = np.array(report.witness["inf_effect"])
        values = np.asarray(verts) @ top
        assert values.min() >= -core.ATOL and values.max() <= 1.0 + core.ATOL
        assert np.array_equal(bottom, u - top)
        assert abs(0.5 * (top @ delta - bottom @ delta) - report.value) <= 1e-12


def _non_spanning_system():
    """Two pure states in R^3: the third coordinate is off their span."""
    return core.TheorySystem(dim=3, unit_effect=[1.0, 1.0, 0.0],
                             pure_states=([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                             group=(np.eye(3), np.eye(3)[[1, 0, 2]]))


def test_op_norm_refuses_pure_states_that_do_not_span():
    # a state on the pure states' span passes the state check; the op-norm then
    # refuses the system
    rho = _non_spanning_system().state([0.5, 0.5, 0.0])
    for fn in (monotones.op_norm_report, monotones.op_norm_distance):
        with pytest.raises(monotones.UnsupportedSystemError, match="do not span"):
            fn(rho)


def test_a_state_off_the_pure_states_span_is_refused_not_scored():
    # validate_system refuses this system, and its derived pure effects are
    # (0, 3), so no effect reads the third coordinate: the state check refuses
    # it by its part off the span, before any caller scores it
    system = _non_spanning_system()
    rho = system.state([0.5, 0.5, 0.3])
    assert system._spans is False and system.extremal_effects.shape == (0, 3)
    for fn in (mixedness.validate_state, monotones.purity_2norm, mixedness.orbit_hull,
               lambda s: mixedness.more_mixed(s, s)):
        with pytest.raises(core.StructuralError, match="off the pure states' span"):
            fn(rho)
    mixedness.validate_state(system.state([0.5, 0.5, 0.0]))
    assert core.make_square_bit()._off_span is None


def test_op_norm_refuses_a_system_with_no_pure_effect():
    # classical-1 has no pure effect, so it has no pure measurement
    rho = core.make_classical(1).state([1.0])
    for fn in (monotones.op_norm_report, monotones.op_norm_distance,
               lambda s: monotones.f_purity(s, ConvexScalarFn.square())):
        with pytest.raises(monotones.UnsupportedSystemError, match="no pure measurements"):
            fn(rho)


def test_op_norm_report_refuses_an_unnormalized_state(bit):
    rho = bit.state([2.0, 0.0])
    for fn in (monotones.op_norm_report, monotones.op_norm_distance):
        with pytest.raises(StructuralError):
            fn(rho)


def test_every_builtin_monotone_refuses_an_unnormalized_state(bit):
    rho = bit.state([2.0, 0.0])
    for fn in monotones.builtin_monotones().values():
        with pytest.raises(StructuralError, match="normalized"):
            fn(rho)


def _state_space_entry_points():
    """Every library function that takes a GPT state, as a one-state callable."""
    f2 = ConvexScalarFn.square()
    return {"more_mixed(rho)": lambda s: mixedness.more_mixed(s, s.system.state(s.vec)),
            "more_mixed(sigma)": lambda s: mixedness.more_mixed(
                mixedness.invariant_state(s.system), s),
            "equally_mixed(rho)": lambda s: mixedness.equally_mixed(
                s, mixedness.invariant_state(s.system)),
            "equally_mixed(sigma)": lambda s: mixedness.equally_mixed(
                mixedness.invariant_state(s.system), s),
            "orbit_hull": mixedness.orbit_hull,
            "f_purity": lambda s: monotones.f_purity(s, f2),
            "measurement_entropy": monotones.measurement_entropy,
            "op_norm_report": monotones.op_norm_report,
            "op_norm_distance": monotones.op_norm_distance,
            "purity_2norm": monotones.purity_2norm,
            **monotones.builtin_monotones()}


@pytest.mark.parametrize("system, vec", [
    (core.make_classical(2), [1.5, -0.5]),       # normalized, below 0 on an effect
    (core.make_classical(2), [2.0, 0.0]),        # unnormalized
    (core.make_square_bit(), [3.0, 0.0, 1.0]),   # normalized, outside the square
], ids=["classical-negative", "classical-unnormalized", "square-outside"])
def test_every_entry_point_refuses_a_state_outside_the_state_space(system, vec):
    rho = system.state(vec)
    for name, fn in _state_space_entry_points().items():
        with pytest.raises(StructuralError, match="normalized|outside the state space"):
            fn(rho)
            pytest.fail(f"{name} scored {vec}")


@pytest.mark.parametrize("system", [core.make_classical(2), core.make_classical(3),
                                    core.make_square_bit(),
                                    core.system_from_dict(_pentagon_dict())],
                         ids=["classical-2", "classical-3", "square-bit", "pentagon"])
def test_vertices_and_facet_midpoints_pass_the_state_check(system):
    verts = list(system.pure_states)
    # adjacent vertices in list order share a facet on these systems
    states = verts + [(v + w) / 2 for v, w in zip(verts, verts[1:] + verts[:1])]
    for vec in states:
        rho = system.state(vec)
        for fn in _state_space_entry_points().values():
            fn(rho)


def test_monotone_caches_die_with_their_system():
    system = core.make_classical(3)
    monotones.op_norm_distance(system.state([0.5, 0.3, 0.2]))
    monotones.purity_2norm(system.state([0.5, 0.3, 0.2]))
    # the pure measurements, the invariant vector and the Gram condition
    # number are cached on the system itself
    assert {"pure_measurements", "invariant_vector", "_gram_condition"} <= set(vars(system))
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


# -- 2-norm purity -------------------------------------------------------------

def test_2norm_values(bit):
    assert abs(monotones.purity_2norm(DensityMatrix.pure([1, 0])) - 1.0) < 1e-12
    assert abs(monotones.purity_2norm(DensityMatrix.maximally_mixed(2)) - 0.5) < 1e-12
    assert abs(monotones.purity_2norm(bit.state([0.7, 0.3])) - 0.58) < 1e-12


def test_2norm_square_bit_gap(square_bit):
    # the 2-norm purity and the x^2-purity need not agree beyond the
    # classical case; record the gap at the center instead of asserting it away
    center = square_bit.state([0.0, 0.0, 1.0])
    two_norm = monotones.purity_2norm(center)
    x2 = monotones.f_purity(center, ConvexScalarFn.square()).value
    assert two_norm >= x2 - 1e-12   # both are monotones; the gap is real
    assert abs(two_norm - 1.0) < 1e-12
    assert abs(x2 - 0.5) < 1e-9


# -- monotone properties -------------------------------------------------------

def test_builtin_monotones_invariance(square_bit, trit):
    for sys in (square_bit, trit):
        table = monotones.builtin_monotones()
        for name, fn in table.items():
            for v in sys.pure_states:
                base = fn(sys.state(v))
                for u in sys.group:
                    moved = fn(sys.state(u @ v))
                    assert abs(moved - base) <= 1e-9, (name, sys.name)


def test_builtin_monotones_convexity(square_bit, trit):
    rng = np.random.default_rng(23)
    for sys in (square_bit, trit):
        table = monotones.builtin_monotones()
        for name, fn in table.items():
            for _ in range(15):
                states = [_random_state(sys, rng) for _ in range(3)]
                weights = rng.dirichlet(np.ones(3))
                mixed = sys.state(sum(w * s.vec for w, s in zip(weights, states)))
                bound = sum(w * fn(s) for w, s in zip(weights, states))
                assert fn(mixed) <= bound + 1e-9, name


def test_builtin_monotones_decrease_under_more_mixed(square_bit):
    rng = np.random.default_rng(29)
    table = monotones.builtin_monotones()
    for _ in range(20):
        rho = _random_state(square_bit, rng)
        sigma = _random_state(square_bit, rng)
        if mixedness.more_mixed(rho, sigma).feasible:
            for name, fn in table.items():
                assert fn(rho) >= fn(sigma) - 1e-9, name


def test_schur_check_accepts_real_monotones(trit):
    report = monotones.schur_convexity_check(monotones.purity_2norm, trit, 300,
                                             seed=31, name="2-norm")
    assert report.ok
    neg_entropy = lambda s: -monotones.measurement_entropy(s).value
    report2 = monotones.schur_convexity_check(neg_entropy, trit, 300,
                                              seed=32, name="neg-entropy")
    assert report2.ok


def test_schur_check_flags_nonconvex_function(trit):
    wavy = lambda s: float(sum(math.sin(10.0 * p) for p in s.vec))
    report = monotones.schur_convexity_check(wavy, trit, 300, seed=33, name="wavy")
    assert not report.ok
    first = report.violations[0]
    assert first["value_after"] > first["value_before"]


def test_custom_fn_convexity_probe():
    assert ConvexScalarFn("quartic", lambda x: x ** 4).convex
    assert not ConvexScalarFn("wavy", lambda x: math.sin(10 * x)).convex


def test_convex_flag_is_not_a_constructor_argument(trit):
    with pytest.raises(TypeError):
        ConvexScalarFn("wavy", lambda x: math.sin(10 * x), True)
    with pytest.raises(TypeError):
        ConvexScalarFn("wavy", lambda x: math.sin(10 * x), convex=True)
    wavy = ConvexScalarFn("wavy", lambda x: math.sin(10 * x))
    assert not wavy.convex
    with pytest.raises(ValueError, match="convex f with f\\(0\\) = 0"):
        monotones.f_purity(trit.state([0.5, 0.3, 0.2]), wavy)


def test_builtin_fns_are_probed_once():
    for build in (ConvexScalarFn.square, ConvexScalarFn.xlogx):
        assert build().convex and build() is build()
