"""Quantum state objects: copied input, factorizations made once and kept.

A ``DensityMatrix`` keeps the eigenpairs of its own PSD check and a
``PureBipartiteState`` keeps one SVD of its coefficient matrix, from which
its marginals (spectra and eigenbases included) and Schmidt weights are
read, so each state is factored once however many functions read it.
"""

from collections import Counter

import numpy as np
import pytest

from gptpurity import quantum
from gptpurity.mixedness import majorizes
from gptpurity.core import StructuralError
from gptpurity.quantum import (DensityMatrix, KrausChannel, OneWayProtocol,
                               PureBipartiteState, SchmidtData, marginals,
                               maximally_entangled, nielsen_convertible,
                               one_way_locc_from_rare, random_density_matrix,
                               random_pure_state, random_unitary, rare_synthesis_quantum,
                               schmidt_decompose)
from gptpurity.tolerances import (ORTHONORMAL_TOL, RELATIVE_RANK_TOL, SPECTRUM_TOL,
                                  UNITARY_TOL, WITNESS_TOL)


# -- input aliasing ---------------------------------------------------------------

def test_pure_state_copies_its_input():
    v = np.zeros(4, complex)
    v[0] = 1
    psi = PureBipartiteState((2, 2), v)
    rho_a = marginals(psi)[0]
    v[0] = 0
    v[3] = 1                        # the caller's array stays writeable
    np.testing.assert_array_equal(psi.vec, [1, 0, 0, 0])
    assert marginals(psi)[0] is rho_a
    np.testing.assert_array_equal(rho_a.matrix, [[1, 0], [0, 0]])
    # computed after the caller's write, so it must still see the copy
    np.testing.assert_array_equal(schmidt_decompose(psi).squared(), [1, 0])


def test_density_matrix_copies_its_input():
    m = np.diag([0.7, 0.3]).astype(complex)
    rho = DensityMatrix(m)
    spectrum = rho.spectrum()
    m[0, 0] = 5                     # the caller's array stays writeable
    np.testing.assert_array_equal(rho.matrix, np.diag([0.7, 0.3]))
    np.testing.assert_array_equal(rho.spectrum(), spectrum)


def test_kraus_channel_copies_its_input():
    k = np.eye(2, dtype=complex)
    channel = KrausChannel((k,))
    k[0, 0] = 5                     # the caller's array stays writeable
    assert np.trace(channel.apply(np.eye(2) / 2)).real == pytest.approx(1.0)
    assert not channel.operators[0].flags.writeable


def test_schmidt_data_copies_its_input():
    c, basis = np.array([1.0, 0.0]), np.eye(2, dtype=complex)
    sd = SchmidtData(c, basis, basis)
    c[0], basis[0, 0] = 5, 5
    np.testing.assert_array_equal(sd.coefficients, [1, 0])
    np.testing.assert_array_equal(sd.left_basis, np.eye(2))
    assert not any(a.flags.writeable for a in (sd.coefficients, sd.left_basis, sd.right_basis))


def test_one_way_protocol_copies_its_input():
    bob, alice, probs = np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.array([1.0])
    protocol = OneWayProtocol((bob,), (alice,), probs)
    bob[0, 0] = alice[0, 0] = probs[0] = 5
    assert protocol.completeness_residual() == 0.0
    np.testing.assert_array_equal(protocol.alice_corrections[0], np.eye(2))
    np.testing.assert_array_equal(protocol.outcome_probs, [1.0])


def test_kraus_channel_refuses_operators_of_different_output_dimension():
    with pytest.raises(StructuralError, match="shapes differ"):
        KrausChannel((np.eye(2), np.zeros((3, 2))))


def test_kraus_channel_refuses_operators_that_are_not_matrices():
    # a NaN entry fails the trace-preservation comparison, so it is refused too
    for ops in ((np.ones(2),), (np.ones((1, 2, 2)),), (np.eye(2), np.ones(2)),
                (np.array([[np.nan, 0], [0, 1]]),)):
        with pytest.raises(StructuralError):
            KrausChannel(ops)


def test_one_way_protocol_refuses_zero_branches():
    with pytest.raises(StructuralError, match="at least one branch"):
        OneWayProtocol((), (), [])


def test_returned_spectra_and_weights_are_fresh_arrays():
    psi = random_pure_state((3, 3), np.random.default_rng(1))
    weights = schmidt_decompose(psi).squared()
    weights[:] = 0
    assert schmidt_decompose(psi).squared().sum() == pytest.approx(1.0)
    rho = marginals(psi)[0]
    spectrum = rho.spectrum()
    spectrum[:] = 0
    assert rho.spectrum().sum() == pytest.approx(1.0)


# -- factorization budget ---------------------------------------------------------

def test_duality_pair_factors_each_state_once(monkeypatch):
    counts = Counter()
    for name in ("eigh", "eigvalsh", "svd", "pinv"):
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(1)
    psi, phi = random_pure_state((3, 3), rng), random_pure_state((3, 3), rng)
    convertible = 0
    # both directions, in the order of the benchmark's duality op
    for a, b in ((psi, phi), (phi, psi)):
        rho, rho_t = marginals(a)[0], marginals(b)[0]
        verdict = nielsen_convertible(a, b)
        assert verdict == majorizes(rho_t.spectrum(), rho.spectrum())
        if verdict:
            rare = rare_synthesis_quantum(rho, rho_t)
            assert one_way_locc_from_rare(a, b, rare).verify(a, b)
            convertible += 1
    assert convertible == 1
    # one SVD per state gives its Schmidt weights, both marginals and their
    # eigenbases; each protocol steers by psi's, with no SVD of the target
    # side; no eigensolver runs
    assert counts == Counter(svd=2)


def test_spectrum_is_the_kept_decomposition_bit_for_bit():
    rng = np.random.default_rng(7)
    for d in range(1, 6):
        for rank in range(1, d + 1):
            m = random_density_matrix(d, rng, rank).matrix.copy()
            vals, vecs = np.linalg.eigh(m)
            rho = DensityMatrix(m)
            # the state keeps eigh's eigenpairs reversed once: descending, columns alike
            assert (np.diff(rho._eigenvalues) <= 0).all()
            assert rho._eigenvalues.tobytes() == vals[::-1].tobytes()
            assert rho._eigenvectors.tobytes() == vecs[:, ::-1].tobytes()
            assert rho.spectrum().tobytes() == np.clip(vals[::-1], 0.0, None).tobytes()
        psi = random_pure_state((d, d + 1), rng)
        for rho in marginals(psi):
            weights = schmidt_decompose(psi).squared()
            expected = np.pad(weights, (0, rho.dim - weights.size))
            assert rho.spectrum().tobytes() == expected.tobytes()


# -- factored marginals ---------------------------------------------------------

def _partial_traces(psi):
    """Marginals by an explicit partial trace of |psi><psi|, as the reference."""
    t = np.einsum("ij,kl->ijkl", psi.coefficient_matrix(), psi.coefficient_matrix().conj())
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def _rank_deficient(dims, rank, rng):
    """A pure state on dims of Schmidt rank ``rank``."""
    da, db = dims
    coeffs = np.zeros(min(da, db))
    coeffs[:rank] = np.sqrt(rng.dirichlet(np.ones(rank)))
    u, v = random_unitary(da, rng), random_unitary(db, rng)
    return PureBipartiteState.from_matrix((u[:, :coeffs.size] * coeffs) @ v[:, :coeffs.size].T)


def _factored_cases():
    rng = np.random.default_rng(31)
    cases = [random_pure_state(dims, rng) for dims in ((2, 3), (3, 2), (1, 4), (4, 1), (3, 3))]
    cases += [_rank_deficient(dims, rank, rng)
              for dims, rank in (((3, 3), 1), ((3, 3), 2), ((4, 4), 2), ((2, 4), 1), ((4, 3), 2))]
    cases += [maximally_entangled(d) for d in (1, 2, 3, 4)]
    cases += [PureBipartiteState.from_matrix(np.eye(3, 2) / np.sqrt(2)),
              PureBipartiteState.from_matrix(random_unitary(3, rng) / np.sqrt(3))]
    return cases


@pytest.mark.parametrize("psi", _factored_cases(), ids=lambda psi: f"{psi.dims[0]}x{psi.dims[1]}")
def test_factored_marginals_are_the_partial_traces_and_their_eigenbases(psi):
    weights = schmidt_decompose(psi).squared()
    # the Schmidt form and the state's kept weights both square the one SVD's values
    assert weights.tobytes() == psi._schmidt_weights.tobytes()
    for rho, reference in zip(marginals(psi), _partial_traces(psi)):
        assert rho.matrix.shape == (rho.dim, rho.dim)
        assert np.max(np.abs(rho.matrix - reference)) <= 1e-10
        vecs = rho._eigenvectors
        assert (np.diff(rho._eigenvalues) <= 0).all()
        # a side wider than the other pads the squared Schmidt weights with zeros at the end
        assert not rho._eigenvalues[min(psi.dims):].any()
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(rho.dim))) <= ORTHONORMAL_TOL
        # the kept eigenbasis diagonalizes the matrix, with the kept eigenvalues
        assert np.max(np.abs(vecs.conj().T @ rho.matrix @ vecs
                             - np.diag(rho._eigenvalues))) <= SPECTRUM_TOL
        np.testing.assert_array_equal(rho.spectrum(),
                                      np.pad(weights, (0, rho.dim - weights.size)))
        assert not any(a.flags.writeable for a in (rho.matrix, rho._eigenvalues, vecs))


def test_factored_marginals_give_witnesses_on_degenerate_pairs():
    rng = np.random.default_rng(32)
    for d in (2, 3, 4):
        states = [maximally_entangled(d), _rank_deficient((d, d), 1, rng),
                  random_pure_state((d, d), rng)]
        if d > 2:
            states.append(_rank_deficient((d, d), d - 1, rng))
        for a in states:
            for b in states:
                if not nielsen_convertible(a, b):
                    continue
                rho, rho_t = marginals(a)[0], marginals(b)[0]
                rare = rare_synthesis_quantum(rho, rho_t)
                for _, u in rare:
                    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= UNITARY_TOL
                mix = sum(w * u @ rho_t.matrix @ u.conj().T for w, u in rare)
                assert np.max(np.abs(mix - rho.matrix)) <= WITNESS_TOL
                assert one_way_locc_from_rare(a, b, rare).verify(a, b)


def test_pure_state_svd_is_kept_read_only():
    psi = random_pure_state((2, 3), np.random.default_rng(33))
    u, s, vh = psi._svd
    assert psi._svd is psi._svd
    assert not any(a.flags.writeable for a in (u, s, vh))
    assert (u.shape, s.shape, vh.shape) == ((2, 2), (2,), (3, 3))


# -- the connecting unitary -------------------------------------------------------

def _connecting_unitary_by_pinv(m1, m2):
    """The pseudo-inverse construction: pinv(M1) M2 plus an isometry between kernels."""
    x0 = np.linalg.pinv(m1, rcond=RELATIVE_RANK_TOL) @ m2
    def kernel(m):
        _, s, vh = np.linalg.svd(m)
        r = int(np.sum(s > s[0] * RELATIVE_RANK_TOL)) if s.size else 0
        return vh[r:].conj().T
    return x0 + kernel(m1) @ kernel(m2).conj().T


def test_connecting_unitary_matches_the_pinv_construction():
    rng = np.random.default_rng(20)
    for d in (2, 3, 4):
        for branches in range(1, d + 1):
            for rank in range(1, d + 1):
                # Schmidt rank `rank` in the first register slot, as in the protocol
                coeffs = np.zeros(d)
                coeffs[:rank] = rng.dirichlet(np.ones(rank))
                m_psi = random_unitary(d, rng) @ np.diag(np.sqrt(coeffs)) @ random_unitary(d, rng)
                m1 = np.zeros((d, d * branches), dtype=complex)
                m1[:, 0::branches] = m_psi
                m2 = m1 @ random_unitary(d * branches, rng)
                t = quantum._connecting_unitary(np.linalg.svd(m1), m2)
                assert np.max(np.abs(m1 @ t - m2)) <= UNITARY_TOL
                reference = _connecting_unitary_by_pinv(m1, m2)
                assert np.max(np.abs(t - reference)) <= UNITARY_TOL
