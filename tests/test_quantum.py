import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptpurity
from gptpurity import mixedness, quantum
from gptpurity.core import ATOL, CapacityError, StructuralError
from gptpurity.quantum import (DensityMatrix, PureBipartiteState,
                               catalytic_erasure_possible, connecting_local_unitary,
                               entanglement_entropy, entanglement_of_formation,
                               local_exchange_channels, lu_equivalent, marginals,
                               maximally_entangled, nielsen_convertible,
                               one_way_locc_from_rare, product_channel_apply, purify,
                               random_density_matrix, random_pure_state, random_unitary,
                               rare_synthesis_quantum, schmidt_decompose, swap_operator,
                               symmetric_purify)
from gptpurity.tolerances import WITNESS_TOL

from oracles import wootters_eof


def bell() -> PureBipartiteState:
    return PureBipartiteState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def two_qubit(a: float, b: float) -> PureBipartiteState:
    return PureBipartiteState((2, 2), np.array([np.sqrt(a), 0, 0, np.sqrt(b)]))


# -- Schmidt ------------------------------------------------------------------

def test_schmidt_bell():
    sd = schmidt_decompose(bell())
    np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state():
    psi = PureBipartiteState((2, 2), [0, 1, 0, 0])  # |0> x |1>
    sd = schmidt_decompose(psi)
    np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_prepared_coefficients():
    sd = schmidt_decompose(two_qubit(0.8, 0.2))
    np.testing.assert_allclose(sd.coefficients, [np.sqrt(0.8), np.sqrt(0.2)], atol=1e-12)


def test_schmidt_reconstruction_and_phase_convention():
    rng = np.random.default_rng(4)
    for da, db in ((2, 2), (3, 3), (2, 4), (4, 3)):
        psi = random_pure_state((da, db), rng)
        sd = schmidt_decompose(psi)
        np.testing.assert_allclose(sd.reconstruct(), psi.vec, atol=1e-9)
        for k in range(sd.rank):
            first = sd.left_basis[np.flatnonzero(np.abs(sd.left_basis[:, k]) > 1e-9)[0], k]
            assert abs(first.imag) < 1e-9 and first.real > 0


def _schmidt_decompose_loop(psi):
    """The column-by-column form of quantum.schmidt_decompose, kept as its reference."""
    u, s, vh = np.linalg.svd(psi.coefficient_matrix())
    r = min(psi.dims)
    u, s, vh = u[:, :r], s[:r], vh[:r, :]
    right = vh.T
    for k in range(r):
        col = u[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-9)
        if idx.size:
            phase = col[idx[0]] / abs(col[idx[0]])
            u[:, k] = col / phase
            right[:, k] = right[:, k] * phase
    return s, u, right


def _low_rank_state(dims, rank, rng):
    """A random pure state whose coefficient matrix has the given rank."""
    da, db = dims
    left = rng.normal(size=(da, rank)) + 1j * rng.normal(size=(da, rank))
    right = rng.normal(size=(rank, db)) + 1j * rng.normal(size=(rank, db))
    m = left @ right
    return PureBipartiteState.from_matrix(m / np.linalg.norm(m))


def test_schmidt_decompose_matches_column_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    states = [random_pure_state(dims, rng)
              for dims in itertools.product(range(1, 5), repeat=2) for _ in range(3)]
    states += [_low_rank_state(dims, rank, rng) for dims, rank in
               (((2, 2), 1), ((3, 3), 1), ((3, 3), 2), ((4, 4), 2), ((4, 4), 3),
                ((4, 3), 1), ((2, 4), 1), ((4, 2), 1))]
    states += [bell(), two_qubit(1.0, 0.0), two_qubit(0.0, 1.0),
               PureBipartiteState((2, 2), [0, 1, 0, 0]),
               PureBipartiteState((2, 3), [0, 0, 1j, 0, 0, 0]),
               maximally_entangled(3), maximally_entangled(4)]
    for psi in states:
        sd = schmidt_decompose(psi)
        for got, want in zip((sd.coefficients, sd.left_basis, sd.right_basis),
                             _schmidt_decompose_loop(psi)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_pure_state_refuses_nonpositive_dims():
    # (-2) * (-2) = 4 matches the vector length, so only the sign check stops these
    for dims in ((-2, -2), (-1, -4)):
        with pytest.raises(StructuralError, match="dims must be positive"):
            PureBipartiteState(dims, [1, 0, 0, 0])


@pytest.mark.parametrize("make, match", [
    (lambda: DensityMatrix(np.zeros((0, 0))), "non-empty"),
    (lambda: DensityMatrix.maximally_mixed(0), "dimension must be positive"),
    (lambda: DensityMatrix([[np.nan]]), "non-finite"),
    (lambda: DensityMatrix([[np.inf, 0], [0, 0]]), "non-finite"),
    (lambda: DensityMatrix.diagonal([np.nan, 1]), "non-finite"),
    (lambda: DensityMatrix.pure(np.zeros(4)), "finite nonzero norm"),
    (lambda: DensityMatrix.pure([np.inf, 0]), "finite nonzero norm"),
    (lambda: DensityMatrix.pure([np.nan, 1]), "finite nonzero norm"),
], ids=["empty", "maximally-mixed-0", "nan", "inf", "diagonal-nan", "pure-zero", "pure-inf",
        "pure-nan"])
def test_malformed_density_matrix_is_refused_in_one_line(make, match):
    # never numpy's own error or a divide warning: each fault is named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match=match) as info:
            make()
    assert "\n" not in str(info.value)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_schmidt_data_rebuilds_the_state(da, db, data):
    # Hypothesis draws zeros and repeated entries often, so product and
    # rank-deficient states come up alongside generic ones
    parts = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * da * db,
                                        max_size=2 * da * db)
                               .filter(lambda x: np.linalg.norm(x) > 0.1)))
    vec = parts[:da * db] + 1j * parts[da * db:]
    psi = PureBipartiteState((da, db), vec / np.linalg.norm(vec))
    sd = schmidt_decompose(psi)
    assert np.max(np.abs(sd.reconstruct() - psi.vec)) <= ATOL
    assert np.all(np.diff(sd.coefficients) <= 0.0)
    for col in sd.left_basis.T:
        first = col[np.flatnonzero(np.abs(col) > quantum.LEAD_TOL)[0]]
        assert abs(first.imag) <= quantum.ZERO_TOL and first.real > 0


# -- marginals and purifications -----------------------------------------------

def test_bell_marginals_maximally_mixed():
    rho_a, rho_b = marginals(bell())
    np.testing.assert_allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(rho_b.matrix, np.eye(2) / 2, atol=1e-12)


def test_product_state_marginals_pure():
    rho_a, _ = marginals(PureBipartiteState((2, 2), [0, 1, 0, 0]))
    assert abs(rho_a.purity() - 1.0) < 1e-12


def test_prepared_state_marginals_diagonal():
    rho_a, rho_b = marginals(two_qubit(0.8, 0.2))
    np.testing.assert_allclose(rho_a.matrix, np.diag([0.8, 0.2]), atol=1e-12)
    np.testing.assert_allclose(rho_b.matrix, np.diag([0.8, 0.2]), atol=1e-12)


def test_marginal_spectra_agree_on_random_states():
    rng = np.random.default_rng(6)
    for _ in range(50):
        da, db = rng.integers(2, 5, size=2)
        psi = random_pure_state((int(da), int(db)), rng)
        rho_a, rho_b = marginals(psi)
        r = min(int(da), int(db))
        sa = np.sort(np.linalg.eigvalsh(rho_a.matrix))[::-1][:r]
        sb = np.sort(np.linalg.eigvalsh(rho_b.matrix))[::-1][:r]
        np.testing.assert_allclose(sa, sb, atol=1e-9)


def test_purify_marginal():
    # degenerate spectra too: any eigenbasis the state keeps serves
    rng = np.random.default_rng(7)
    states = [random_density_matrix(d, rng) for d in (2, 3, 4)]
    states += [DensityMatrix.maximally_mixed(d) for d in (2, 3, 4)]
    states += [werner(p) for p in (0.0, 0.2, 1 / 3, 0.5, 1.0)]
    for rho in states:
        np.testing.assert_allclose(marginals(purify(rho))[0].matrix, rho.matrix, atol=1e-10)
        for side in marginals(symmetric_purify(rho)):
            np.testing.assert_allclose(side.matrix, rho.matrix, atol=1e-10)


def test_purify_pure_state_gives_product():
    psi = purify(DensityMatrix.pure([0.6, 0.8j]))
    assert abs(entanglement_entropy(psi)) < 1e-12


def test_symmetric_purify_both_marginals():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        rho = random_density_matrix(d, rng)
        psi = symmetric_purify(rho)
        rho_a, rho_b = marginals(psi)
        np.testing.assert_allclose(rho_a.matrix, rho.matrix, atol=1e-10)
        np.testing.assert_allclose(rho_b.matrix, rho.matrix, atol=1e-10)


def test_symmetric_purify_diagonal_example():
    psi = symmetric_purify(DensityMatrix.diagonal([0.8, 0.2]))
    expected = np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)])
    assert min(np.linalg.norm(psi.vec - expected),
               np.linalg.norm(psi.vec + expected)) < 1e-9


def test_purify_maximally_mixed_is_bell_like():
    psi = purify(DensityMatrix.maximally_mixed(2))
    assert abs(entanglement_entropy(psi) - 1.0) < 1e-12


def test_purification_uniqueness_witness():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        rho = random_density_matrix(d, rng)
        psi1 = purify(rho)
        v = random_unitary(d, rng)
        psi2 = PureBipartiteState.from_matrix(psi1.coefficient_matrix() @ v.T)
        w = connecting_local_unitary(psi1, psi2)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(d), atol=1e-9)
        moved = psi1.coefficient_matrix() @ w.T
        np.testing.assert_allclose(moved, psi2.coefficient_matrix(), atol=1e-9)


# -- convertibility -------------------------------------------------------------

def test_nielsen_examples():
    assert nielsen_convertible(two_qubit(0.6, 0.4), two_qubit(0.8, 0.2))
    assert not nielsen_convertible(two_qubit(0.8, 0.2), two_qubit(0.6, 0.4))
    product = PureBipartiteState((2, 2), [1, 0, 0, 0])
    assert nielsen_convertible(bell(), product)
    assert not nielsen_convertible(product, bell())


def test_degenerate_pair_convertible_both_ways_and_lu():
    rng = np.random.default_rng(19)
    psi = random_pure_state((3, 3), rng)
    assert nielsen_convertible(psi, psi)
    assert lu_equivalent(psi, psi)


def test_bell_converts_to_everything():
    rng = np.random.default_rng(10)
    for _ in range(50):
        assert nielsen_convertible(bell(), random_pure_state((2, 2), rng))


def test_lu_equivalence():
    flipped = PureBipartiteState((2, 2), np.array([0, 1, 1, 0]) / np.sqrt(2))
    assert lu_equivalent(bell(), flipped)
    assert not lu_equivalent(two_qubit(0.8, 0.2), two_qubit(0.6, 0.4))
    assert lu_equivalent(bell(), bell())


# -- local exchange --------------------------------------------------------------

def _swap_residual(psi: PureBipartiteState) -> float:
    chan_c, chan_d = local_exchange_channels(psi)
    rho = np.outer(psi.vec, psi.vec.conj())
    s = swap_operator(psi.dims[0])
    out = product_channel_apply(chan_c, chan_d, rho)
    return float(np.max(np.abs(out - s @ rho @ s)))


def test_local_exchange_bell_invariant():
    chan_c, chan_d = local_exchange_channels(bell())
    assert _swap_residual(bell()) < 1e-12
    rho = np.outer(bell().vec, bell().vec.conj())
    out = product_channel_apply(chan_c, chan_d, rho)
    np.testing.assert_allclose(out, rho, atol=1e-12)


def test_local_exchange_product_state():
    psi = PureBipartiteState((2, 2), [0, 1, 0, 0])  # |0> x |1>
    chan_c, chan_d = local_exchange_channels(psi)
    # the isometry part maps the A support |0> onto the B vector |1>
    np.testing.assert_allclose(chan_c.operators[0] @ np.array([1, 0]),
                               np.array([0, 1]), atol=1e-12)
    np.testing.assert_allclose(chan_d.operators[0] @ np.array([0, 1]),
                               np.array([1, 0]), atol=1e-12)
    assert _swap_residual(psi) < 1e-12


def test_local_exchange_random_states():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for _ in range(100):
            assert _swap_residual(random_pure_state((d, d), rng)) <= 1e-9


def test_local_exchange_rejects_rectangular():
    rng = np.random.default_rng(12)
    with pytest.raises(StructuralError):
        local_exchange_channels(random_pure_state((2, 3), rng))


# -- RaRe synthesis ---------------------------------------------------------------

def test_rare_synthesis_diagonal_example():
    rare = rare_synthesis_quantum(DensityMatrix.diagonal([0.5, 0.5]),
                                  DensityMatrix.diagonal([0.7, 0.3]))
    weights = sorted(w for w, _ in rare)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-9)


def test_rare_synthesis_pure_to_rotated():
    rng = np.random.default_rng(13)
    u = random_unitary(3, rng)
    source = DensityMatrix.pure([1, 0, 0])
    target = DensityMatrix(u @ source.matrix @ u.conj().T)
    rare = rare_synthesis_quantum(target, source)
    assert len(rare) == 1
    w, v = rare[0]
    assert abs(w - 1.0) < 1e-12
    np.testing.assert_allclose(v @ source.matrix @ v.conj().T, target.matrix, atol=1e-9)


def test_rare_synthesis_to_maximally_mixed():
    source = DensityMatrix.diagonal([0.5, 0.3, 0.2])
    rare = rare_synthesis_quantum(DensityMatrix.maximally_mixed(3), source)
    mix = sum(w * u @ source.matrix @ u.conj().T for w, u in rare)
    np.testing.assert_allclose(mix, np.eye(3) / 3, atol=1e-9)


def test_rare_synthesis_requires_majorization():
    with pytest.raises(StructuralError):
        rare_synthesis_quantum(DensityMatrix.diagonal([0.7, 0.3]),
                               DensityMatrix.diagonal([0.5, 0.5]))


def test_rare_preserves_2norm():
    rng = np.random.default_rng(14)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        spec_hi = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        mixed = spec_hi * 0.5 + np.full(d, 0.5 / d)
        rare = rare_synthesis_quantum(DensityMatrix.diagonal(np.sort(mixed)[::-1]),
                                      DensityMatrix.diagonal(spec_hi))
        sigma = random_density_matrix(d, rng)
        out = sum(w * u @ sigma.matrix @ u.conj().T for w, u in rare)
        assert np.trace(out @ out).real <= sigma.purity() + 1e-9


# -- one-way protocol ---------------------------------------------------------------

def test_one_way_trivial_identity():
    psi = bell()
    rare = [(1.0, np.eye(2, dtype=complex))]
    protocol = one_way_locc_from_rare(psi, psi, rare)
    assert len(protocol.bob_instrument) == 1
    np.testing.assert_allclose(protocol.bob_instrument[0], np.eye(2), atol=1e-9)
    np.testing.assert_allclose(protocol.alice_corrections[0], np.eye(2), atol=1e-12)
    assert protocol.verify(psi, psi)


def test_one_way_mixed_to_sharper():
    psi = purify(DensityMatrix.maximally_mixed(2))
    target = purify(DensityMatrix.diagonal([0.7, 0.3]))
    rare = rare_synthesis_quantum(DensityMatrix.maximally_mixed(2),
                                  DensityMatrix.diagonal([0.7, 0.3]))
    protocol = one_way_locc_from_rare(psi, target, rare)
    assert len(protocol.bob_instrument) == 2
    assert protocol.completeness_residual() <= 1e-9
    assert np.max(protocol.outcome_residuals(psi, target)) <= 1e-8


def test_one_way_random_d3_instances():
    rng = np.random.default_rng(15)
    done = 0
    while done < 10:
        psi = random_pure_state((3, 3), rng)
        target = random_pure_state((3, 3), rng)
        if not nielsen_convertible(psi, target):
            continue
        rho, rho_t = marginals(psi)[0], marginals(target)[0]
        rare = rare_synthesis_quantum(rho, rho_t)
        protocol = one_way_locc_from_rare(psi, target, rare)
        assert protocol.completeness_residual() <= 1e-9
        assert np.max(protocol.outcome_residuals(psi, target)) <= 1e-8
        done += 1


def test_one_way_rejects_wrong_rare():
    psi = purify(DensityMatrix.maximally_mixed(2))
    target = purify(DensityMatrix.diagonal([0.7, 0.3]))
    with pytest.raises(StructuralError):
        one_way_locc_from_rare(psi, target, [(1.0, np.eye(2, dtype=complex))])
    # a mixture 5e-9 off is refused too: the bound is WITNESS_TOL, not PROTOCOL_TOL
    near = purify(DensityMatrix.diagonal([0.7 + 5e-9, 0.3 - 5e-9]))
    with pytest.raises(StructuralError):
        one_way_locc_from_rare(target, near, [(1.0, np.eye(2, dtype=complex))])


def _convertible_pair(d: int, rng) -> tuple[PureBipartiteState, PureBipartiteState]:
    """A seeded d x d pair (psi, target) that LOCC converts: psi's Schmidt weights
    mix permutations of target's, so target's majorize them (random local bases)."""
    t = rng.dirichlet(np.ones(d))
    s = sum(w * t[rng.permutation(d)] for w in rng.dirichlet(np.ones(3)))

    def state(weights):
        m = random_unitary(d, rng) @ np.diag(np.sqrt(weights)) @ random_unitary(d, rng)
        return PureBipartiteState.from_matrix(m)
    return state(s), state(t)


def _check_conversion(psi: PureBipartiteState, target: PureBipartiteState) -> int:
    """Build and check the RaRe witness and one-way protocol for psi -> target; its term count."""
    rho, rho_t = marginals(psi)[0], marginals(target)[0]
    rare = rare_synthesis_quantum(rho, rho_t)
    assert quantum._rare_residual(rare, rho_t.matrix, rho.matrix) <= WITNESS_TOL
    assert one_way_locc_from_rare(psi, target, rare).verify(psi, target)
    return len(rare)


@pytest.mark.parametrize("d", [7, 8])
def test_rare_witness_and_protocol_verify_past_the_classical_limit(d):
    # the walk needs no n! group, so the quantum route runs where make_classical stops
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        psi, target = _convertible_pair(d, rng)
        assert nielsen_convertible(psi, target)
        assert _check_conversion(psi, target) <= d


def test_jonathan_plenio_catalysis_has_a_checked_rare_witness():
    # (0.4, 0.4, 0.1, 0.1) cannot reach (0.5, 0.25, 0.25, 0) by LOCC, but with the
    # catalyst (0.6, 0.4) it can (Jonathan & Plenio, PRL 83, 3566, 1999): an
    # 8-dimensional walk
    def pure(weights):
        return PureBipartiteState.from_matrix(np.diag(np.sqrt(weights)))
    source, target, catalyst = [0.4, 0.4, 0.1, 0.1], [0.5, 0.25, 0.25, 0.0], [0.6, 0.4]
    assert not nielsen_convertible(pure(source), pure(target))
    psi, phi = pure(np.kron(source, catalyst)), pure(np.kron(target, catalyst))
    assert nielsen_convertible(psi, phi)
    assert _check_conversion(psi, phi) <= 8


def test_rare_synthesis_refuses_dimensions_above_the_walk_bound():
    d = mixedness.WALK_MAX_N + 1
    with pytest.raises(CapacityError):
        rare_synthesis_quantum(DensityMatrix.maximally_mixed(d), DensityMatrix.pure(np.eye(d)[0]))


# -- entanglement measures -----------------------------------------------------------

def test_import_loads_no_scipy():
    # the package imports no scipy anywhere: a fresh interpreter that imports
    # it and its CLI, runs EoF on a rank-3 state and runs the eof verb loads none
    src = str(Path(gptpurity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, numpy as np, gptpurity, gptpurity.cli\n"
            "from gptpurity.quantum import entanglement_of_formation, random_density_matrix\n"
            "rho = random_density_matrix(4, np.random.default_rng(3), rank=3)\n"
            "assert 0 <= entanglement_of_formation(rho) <= 1\n"
            "rho = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]\n"
            "assert gptpurity.cli.main(['eof', '--rho', repr(rho)]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_eof_bell_is_one():
    rho = DensityMatrix.pure(bell().vec)
    assert abs(entanglement_of_formation(rho) - 1.0) < 1e-6


def test_eof_product_is_zero():
    rho = DensityMatrix.pure([1, 0, 0, 0])
    assert abs(entanglement_of_formation(rho)) < 1e-9


def test_eof_matches_wootters_on_rank2():
    rng = np.random.default_rng(16)
    for _ in range(15):
        rho = random_density_matrix(4, rng, rank=2)
        ours = entanglement_of_formation(rho)
        assert abs(ours - wootters_eof(rho.matrix)) < 1e-3


def test_eof_matches_wootters_on_full_rank():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        assert abs(entanglement_of_formation(rho) - wootters_eof(rho.matrix)) < 1e-3


def _central_gradient(fun, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return out


def _stacked_sum(roots, starts):
    return lambda p: quantum._roof_objective(p.reshape(starts, -1), roots)[0].sum()


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eof_objective_gradient_matches_central_differences(rank):
    rng = np.random.default_rng(40 + rank)
    roots = (rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))) / 3
    params = rng.normal(size=(3, 2 * 6 * rank))
    _, grad = quantum._roof_objective(params, roots)
    assert grad.shape == params.shape
    numeric = _central_gradient(_stacked_sum(roots, 3), params.ravel())
    np.testing.assert_allclose(grad.ravel(), numeric, rtol=0, atol=1e-7)


def test_eof_objective_gradient_at_singular_members():
    rng = np.random.default_rng(45)
    other = (rng.normal(size=4) + 1j * rng.normal(size=4)) / 3
    # at the identity isometry the members are the roots themselves, and the
    # rows beyond the rank are empty (below the member-weight floor); all
    # three starts sit there
    identity = np.tile(np.concatenate([np.eye(6, 2).ravel(), np.zeros(12)]), (3, 1))
    entangled = np.array([np.array([1, 0, 0, 1]) / 2, other])      # s = 0 member
    _, grad = quantum._roof_objective(identity, entangled)
    assert np.all(np.isfinite(grad))
    numeric = _central_gradient(_stacked_sum(entangled, 3), identity.ravel())
    np.testing.assert_allclose(grad.ravel(), numeric, rtol=0, atol=1e-7)
    product = np.array([np.array([0.6, 0, 0, 0]), other])           # D = 0 member
    cost, grad = quantum._roof_objective(identity, product)
    assert np.all(np.isfinite(cost)) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eof_objective_starts_do_not_mix(rank):
    # each start's cost and gradient row is what that start gives alone
    rng = np.random.default_rng(50 + rank)
    roots = (rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))) / 3
    starts = 3
    params = rng.normal(size=(starts, 2 * 6 * rank))
    costs, grad = quantum._roof_objective(params, roots)
    assert costs.shape == (starts,)
    for k in range(starts):
        alone, alone_grad = quantum._roof_objective(params[k:k + 1], roots)
        assert abs(costs[k] - alone[0]) <= 1e-14
        np.testing.assert_allclose(grad[k], alone_grad[0], rtol=0, atol=1e-14)


def _eof_problems(rank, count, seed, monkeypatch):
    """The objective and starts that entanglement_of_formation hands to minimize."""
    seen, batched = [], quantum.minimize

    def spy(fun, x0):
        seen.append((fun, x0.copy()))
        return batched(fun, x0)

    monkeypatch.setattr(quantum, "minimize", spy)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        entanglement_of_formation(random_density_matrix(4, rng, rank=rank))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_eof_minimize_runs_each_start_as_if_alone(rank, monkeypatch):
    # the batched run evaluates, at each call, the next point of every start
    # still running, in start order; a stopped start is not evaluated again,
    # and it ends where the same start run alone ends
    for fun, x0 in _eof_problems(rank, 4, 70 + rank, monkeypatch):
        calls = []

        def logged(p, fun=fun, log=calls):
            log.append(p.copy())
            return fun(p)

        res = quantum.minimize(logged, x0)
        assert res.x.shape == x0.shape and res.fun.shape == (x0.shape[0],)
        assert type(res.nfev) is int and type(res.nit) is int
        assert res.nfev == len(calls) and 0 < res.nit < res.nfev
        alone_runs = []
        for k in range(x0.shape[0]):
            points = []

            def logged_alone(p, fun=fun, log=points):
                log.append(p[0].copy())
                return fun(p)

            alone = quantum.minimize(logged_alone, x0[k:k + 1])
            assert abs(res.fun[k] - alone.fun[0]) <= 1e-12
            np.testing.assert_allclose(res.x[k], alone.x[0], rtol=0, atol=1e-12)
            assert 0 < alone.nit <= res.nit and alone.nfev <= res.nfev
            alone_runs.append(points)
        for j, batch in enumerate(calls):
            expected = [points[j] for points in alone_runs if j < len(points)]
            assert len(batch) == len(expected)
            np.testing.assert_allclose(batch, np.array(expected), rtol=0, atol=1e-12)
        assert res.nfev == max(len(points) for points in alone_runs)


def test_eof_never_below_wootters():
    # the members always decompose rho, so the roof can only sit above the oracle
    rng = np.random.default_rng(47)
    for rank in (2, 3, 4):
        for _ in range(5):
            rho = random_density_matrix(4, rng, rank=rank)
            assert entanglement_of_formation(rho) >= wootters_eof(rho.matrix) - 1e-12


def werner(p: float) -> DensityMatrix:
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    return DensityMatrix(p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4)


@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.34, 0.5, 0.9])
def test_eof_werner_states(p):
    rho = werner(p)
    assert abs(entanglement_of_formation(rho) - wootters_eof(rho.matrix)) < 1e-6


def test_eof_separable_mixtures_are_zero():
    rng = np.random.default_rng(18)
    for _ in range(5):
        members = [np.kron(random_pure_state((2, 1), rng).vec, random_pure_state((2, 1), rng).vec)
                   for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        rho = DensityMatrix(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, members)))
        assert abs(entanglement_of_formation(rho) - wootters_eof(rho.matrix)) < 1e-6


def test_eof_keeps_its_accuracy_on_a_seeded_sweep():
    # each start stops at EOF_FTOL; the value they stop at must still sit on
    # the Wootters value, and never below it (the members decompose rho)
    rng = np.random.Generator(np.random.Philox(key=191919))
    mats = [random_density_matrix(4, rng, rank=rank).matrix
            for rank in (2, 3, 4) for _ in range(100)]
    mats += [werner(p).matrix for p in np.linspace(0.0, 1.0, 11)]
    for _ in range(20):
        members = [np.kron(random_pure_state((2, 1), rng).vec, random_pure_state((2, 1), rng).vec)
                   for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mats.append(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, members)))
    gaps = np.array([entanglement_of_formation(DensityMatrix(m)) - wootters_eof(m) for m in mats])
    assert np.abs(gaps).max() <= 5e-8
    assert gaps.min() >= -1e-12


def test_eof_of_a_rank1_state_is_the_entropy_of_its_top_eigenvector():
    rng = np.random.Generator(np.random.Philox(key=191920))
    for _ in range(50):
        rho = random_density_matrix(4, rng, rank=1)
        top = np.linalg.eigh(rho.matrix)[1][:, -1]
        value = entanglement_of_formation(rho)
        assert abs(value - entanglement_entropy(PureBipartiteState((2, 2), top))) <= 1e-12


def test_eof_is_bit_identical_between_calls():
    rho = random_density_matrix(4, np.random.default_rng(19), rank=3)
    assert entanglement_of_formation(rho) == entanglement_of_formation(rho)


def test_eof_rejects_other_dims():
    with pytest.raises(StructuralError):
        entanglement_of_formation(DensityMatrix.maximally_mixed(3))


def test_catalytic_erasure_examples():
    verdict = catalytic_erasure_possible(DensityMatrix.diagonal([0.7, 0.3]))
    assert not verdict.possible
    assert abs(verdict.margin - 0.42) < 1e-12
    pure = catalytic_erasure_possible(DensityMatrix.pure([1, 0]))
    assert pure.possible and abs(pure.margin) < 1e-12
    qutrit = catalytic_erasure_possible(DensityMatrix.maximally_mixed(3))
    assert not qutrit.possible
    assert abs(qutrit.margin - 2.0 / 3.0) < 1e-12


def test_entanglement_entropy_values():
    assert abs(entanglement_entropy(bell()) - 1.0) < 1e-12
    assert abs(entanglement_entropy(two_qubit(1.0, 0.0))) < 1e-12
    assert abs(entanglement_entropy(maximally_entangled(4)) - 2.0) < 1e-12


def test_duality_boolean_agreement_small_sample():
    from gptpurity.mixedness import majorizes
    rng = np.random.default_rng(18)
    for d in (2, 3, 4):
        for _ in range(60):
            psi = random_pure_state((d, d), rng)
            phi = random_pure_state((d, d), rng)
            left = nielsen_convertible(psi, phi)
            right = majorizes(marginals(phi)[0].spectrum(),
                              marginals(psi)[0].spectrum())
            assert left == right


# -- random instances ---------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda rng: random_pure_state((-2, -2), rng),
    lambda rng: random_pure_state((0, 3), rng),
    lambda rng: random_density_matrix(0, rng),
    lambda rng: random_density_matrix(-1, rng),
    lambda rng: random_density_matrix(4, rng, rank=0),
    lambda rng: random_density_matrix(4, rng, rank=5),
])
def test_random_helpers_refuse_bad_shapes_before_drawing(make):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(StructuralError):
        make(rng)
    assert rng.bit_generator.state == before
