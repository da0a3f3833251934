"""Finite-dimensional quantum backend.

Density matrices, purifications (plain and symmetric), Schmidt data, the
majorization convertibility test for pure bipartite states, swap-realizing
local channel pairs, random-unitary mixing synthesis, the steering-based
one-way protocol construction, and the convex-roof entanglement measure
for two qubits.

Conventions: a pure bipartite vector is stored against the product basis
|i>|j> with the B index fastest, so its coefficient matrix is the d_A x d_B
reshape.  Entropies are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import StructuralError, sums_to_one
from .mixedness import _walk_witness, majorizes
from .tolerances import (ENTROPY_FLOOR, EOF_ARMIJO, EOF_ARTANH_CLIP, EOF_CURVATURE_FLOOR,
                         EOF_FTOL, EOF_GTOL, EOF_WEIGHT_FLOOR, HERM_TOL, LEAD_TOL, MONOTONE_TOL,
                         ORTHONORMAL_TOL, PHASE_FLOOR, PROTOCOL_TOL, PSD_TOL, RANK_TOL,
                         RELATIVE_RANK_TOL, SPECTRUM_TOL, SUM_TOL, TRACE_PRESERVING_TOL,
                         UNITARY_TOL, WITNESS_TOL, ZERO_TOL)

#: pure members of an EoF ensemble (at least the rank of the state)
EOF_MEMBERS = 6
#: BFGS starts of the EoF optimizer: the eigen-ensemble, then random rotations
EOF_STARTS = 3
#: seed of the random rotations that make the EoF starts after the first
EOF_SEED = 11
#: iterations after which a start of ``minimize`` stops: a work budget that ends every
#: run, far above the iterations an EoF start takes (at most 75 on the Tier-1 sweep's
#: 300 random states)
EOF_MAX_ITER = 300


def _sci(tol: float) -> str:
    """A tolerance in short scientific form, exponent unpadded, for error messages."""
    return np.format_float_scientific(tol, trim="-", exp_digits=1)


def _frozen(x, dtype) -> np.ndarray:
    """A read-only copy of ``x`` as an array of ``dtype``."""
    a = np.array(x, dtype=dtype)
    a.flags.writeable = False
    return a


def _entropy_bits(p: np.ndarray) -> float:
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    nz = p[p > ENTROPY_FLOOR]
    return float(-np.sum(nz * np.log2(nz)))


def _lead_phases(vecs: np.ndarray) -> np.ndarray:
    """Phase of each column's first component above ``LEAD_TOL`` in magnitude.

    Dividing a column by its phase makes that component real positive.
    The columns must be unit vectors, which always have such a component.
    The modulus is taken with hypot, as abs() of a complex scalar does, so
    the phases equal a column-by-column loop's bit for bit (numpy's
    vectorized complex abs can differ from it in the last bit).
    """
    lead = vecs[np.argmax(np.abs(vecs) > LEAD_TOL, axis=0), np.arange(vecs.shape[1])]
    return lead / np.hypot(lead.real, lead.imag)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with trace at most one.

    The matrix is a read-only copy of the input.  The PSD check runs one
    ``eigh``, and the state keeps its eigenvalues, descending (``eigh``'s
    output reversed once), and their eigenvectors as columns in the same
    order, read-only: ``spectrum``, the purifications, EoF and the RaRe
    synthesis read them as they are; any eigenbasis serves them, so no tie
    order or phase is fixed.  A marginal of a pure state is built from that
    state's SVD instead and keeps the same two arrays.  An empty matrix or a
    non-finite entry is refused before any check runs.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError(f"density matrix must be square, got {m.shape}")
        if m.size == 0:
            raise StructuralError("density matrix must be non-empty")
        if not np.isfinite(m).all():
            raise StructuralError("density matrix has a non-finite entry")
        if not np.max(np.abs(m - m.conj().T)) <= HERM_TOL:
            raise StructuralError(f"matrix is not Hermitian within {_sci(HERM_TOL)}")
        vals, vecs = np.linalg.eigh(m)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        if vals[-1] < -PSD_TOL:
            raise StructuralError(f"matrix has negative eigenvalue {vals[-1]:.3e}")
        tr = float(np.trace(m).real)
        # the trace and the weight it misses form a two-outcome distribution
        if not sums_to_one((tr, 1.0 - tr)):
            raise StructuralError(f"trace {tr:.6f} outside [0, 1]")
        self._keep(m, vals, vecs)

    def _keep(self, matrix: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
        _read_only(matrix, vals, vecs)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_eigenvalues", vals)
        object.__setattr__(self, "_eigenvectors", vecs)

    @classmethod
    def _factored(cls, matrix: np.ndarray, vals: np.ndarray,
                  vecs: np.ndarray) -> "DensityMatrix":
        """A state PSD by construction, with its descending eigenpairs given: no checks run."""
        rho = object.__new__(cls)
        rho._keep(matrix, vals, vecs)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending, clipped to be nonnegative, as a fresh array.

        They come from the one decomposition the state keeps.
        """
        return np.clip(self._eigenvalues, 0.0, None)

    @staticmethod
    def pure(vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if not (np.isfinite(norm) and norm > 0):
            raise StructuralError(f"pure state vector needs a finite nonzero norm, got {norm}")
        v = v / norm
        return DensityMatrix(np.outer(v, v.conj()))

    @staticmethod
    def diagonal(p) -> "DensityMatrix":
        return DensityMatrix(np.diag(np.asarray(p, dtype=complex)))

    @staticmethod
    def maximally_mixed(d: int) -> "DensityMatrix":
        if d < 1:
            raise StructuralError(f"dimension must be positive, got {d}")
        return DensityMatrix(np.eye(d, dtype=complex) / d)


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Unit vector on a d_A x d_B tensor product.

    The vector is a read-only copy of the input.  The full SVD U S V^dag
    of the coefficient matrix is computed once, on first use, and kept
    read-only; the Schmidt weights, ``schmidt_decompose`` and both
    marginals read it.
    """

    dims: tuple[int, int]
    vec: np.ndarray

    def __post_init__(self):
        da, db = self.dims
        if da < 1 or db < 1:
            raise StructuralError(f"dims must be positive, got {da}x{db}")
        v = _frozen(self.vec, complex).reshape(-1)
        if v.shape[0] != da * db:
            raise StructuralError(f"vector length {v.shape[0]} != {da}*{db}")
        if not sums_to_one(np.vdot(v, v).real):
            raise StructuralError(f"state vector is not normalized within {_sci(SUM_TOL)}")
        object.__setattr__(self, "vec", v)
        object.__setattr__(self, "dims", (int(da), int(db)))

    def coefficient_matrix(self) -> np.ndarray:
        return self.vec.reshape(self.dims)

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, S, V^dag) of the coefficient matrix, S descending; checked to rebuild it."""
        m = self.coefficient_matrix()
        u, s, vh = np.linalg.svd(m)
        if np.max(np.abs((u[:, :s.size] * s) @ vh[:s.size] - m)) > SPECTRUM_TOL:
            raise RuntimeError("SVD factors do not rebuild the coefficient matrix; "
                               "numerical failure")
        _read_only(u, s, vh)
        return u, s, vh

    @cached_property
    def _marginals(self) -> tuple[DensityMatrix, DensityMatrix]:
        # rho_A = m m^dag = U S^2 U^dag and rho_B = (m^dag m)^T = conj(V) S^2 V^T,
        # so the eigenbases are U and conj(V) = (V^dag)^T and the spectra S^2,
        # descending as the SVD returns them, padded with zeros at the end
        m = self.coefficient_matrix()
        u, s, vh = self._svd
        vals_a, vals_b = np.zeros(self.dims[0]), np.zeros(self.dims[1])
        vals_a[:s.size] = vals_b[:s.size] = s ** 2
        rho_a = DensityMatrix._factored(m @ m.conj().T, vals_a, u)
        rho_b = DensityMatrix._factored(np.ascontiguousarray((m.conj().T @ m).T), vals_b, vh.T)
        return rho_a, rho_b

    @cached_property
    def _schmidt_weights(self) -> np.ndarray:
        # descending, as the SVD returns them
        w = self._svd[1] ** 2
        _read_only(w)
        return w

    @staticmethod
    def from_matrix(m) -> "PureBipartiteState":
        m = np.asarray(m, dtype=complex)
        return PureBipartiteState(m.shape, m.reshape(-1))


def maximally_entangled(d: int) -> PureBipartiteState:
    """Uniform-Schmidt state on d x d."""
    return PureBipartiteState.from_matrix(np.eye(d, dtype=complex) / np.sqrt(d))


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt form: coefficients and the biorthogonal bases (columns), as read-only copies."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        c = _frozen(self.coefficients, float)
        if not sums_to_one(c ** 2):
            raise StructuralError("squared Schmidt coefficients must sum to 1")
        if np.any(np.diff(c) > ZERO_TOL) or c.min() < -ZERO_TOL:
            raise StructuralError("Schmidt coefficients must be nonnegative descending")
        object.__setattr__(self, "coefficients", c)
        for name in ("left_basis", "right_basis"):
            b = _frozen(getattr(self, name), complex)
            gram = b.conj().T @ b
            if np.max(np.abs(gram - np.eye(gram.shape[0]))) > ORTHONORMAL_TOL:
                raise StructuralError(f"{name} is not orthonormal within {_sci(ORTHONORMAL_TOL)}")
            object.__setattr__(self, name, b)

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > RANK_TOL))

    def squared(self) -> np.ndarray:
        return self.coefficients ** 2

    def reconstruct(self) -> np.ndarray:
        m = (self.left_basis * self.coefficients) @ self.right_basis.T
        return m.reshape(-1)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel given by Kraus operators, kept as read-only copies."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_frozen(k, complex) for k in self.operators)
        if not ops:
            raise StructuralError("channel needs at least one Kraus operator")
        if ops[0].ndim != 2:      # the shape check below holds the others to ops[0]'s
            raise StructuralError(f"Kraus operators must be matrices, got shape {ops[0].shape}")
        din = ops[0].shape[1]
        total = np.zeros((din, din), dtype=complex)
        for k in ops:
            if k.shape != ops[0].shape:
                raise StructuralError(f"Kraus operator shapes differ: {k.shape}, {ops[0].shape}")
            total += k.conj().T @ k
        if not np.max(np.abs(total - np.eye(din))) <= TRACE_PRESERVING_TOL:
            raise StructuralError("Kraus operators do not preserve the trace within "
                                  f"{_sci(TRACE_PRESERVING_TOL)}")
        object.__setattr__(self, "operators", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.operators)


@dataclass(frozen=True, eq=False)
class OneWayProtocol:
    """Bob's instrument plus Alice's conditional unitary corrections, as read-only copies."""

    bob_instrument: tuple[np.ndarray, ...]
    alice_corrections: tuple[np.ndarray, ...]
    outcome_probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bob_instrument",
                           tuple(_frozen(b, complex) for b in self.bob_instrument))
        object.__setattr__(self, "alice_corrections",
                           tuple(_frozen(a, complex) for a in self.alice_corrections))
        object.__setattr__(self, "outcome_probs", _frozen(self.outcome_probs, float))
        if not (len(self.bob_instrument) == len(self.alice_corrections)
                == self.outcome_probs.size):
            raise StructuralError("protocol branch counts disagree")
        if not self.bob_instrument:
            raise StructuralError("protocol needs at least one branch")

    def completeness_residual(self) -> float:
        db = self.bob_instrument[0].shape[1]
        total = sum(b.conj().T @ b for b in self.bob_instrument)
        return float(np.max(np.abs(total - np.eye(db))))

    def outcome_residuals(self, psi: "PureBipartiteState",
                          target: "PureBipartiteState") -> np.ndarray:
        """Per-outcome norm of (A_i x B_i)|psi> - sqrt(p_i) * phase * |target>."""
        m = psi.coefficient_matrix()
        out = []
        for a, b, p in zip(self.alice_corrections, self.bob_instrument, self.outcome_probs):
            branch = (a @ m @ b.T).reshape(-1)
            overlap = np.vdot(target.vec, branch)
            phase = overlap / abs(overlap) if abs(overlap) > PHASE_FLOOR else 1.0
            out.append(np.linalg.norm(branch - np.sqrt(p) * phase * target.vec))
        return np.array(out)

    def verify(self, psi: "PureBipartiteState", target: "PureBipartiteState") -> bool:
        """Bob's branches are complete and every branch hits its target."""
        return bool(self.completeness_residual() <= TRACE_PRESERVING_TOL
                    and np.all(self.outcome_residuals(psi, target) <= PROTOCOL_TOL))


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def schmidt_decompose(psi: PureBipartiteState) -> SchmidtData:
    """SVD of the coefficient matrix, with a deterministic phase convention.

    The first significant component of every left vector is made real
    positive; the compensating phase is pushed into the right vector.
    """
    u, s, vh = psi._svd
    r = min(psi.dims)
    u, s, vh = u[:, :r], s[:r], vh[:r, :]
    # right holds kets, as columns: psi = sum_k s_k u[:,k] (x) right[:,k]
    phase = _lead_phases(u)
    return SchmidtData(s, u / phase, vh.T * phase)


def marginals(psi: PureBipartiteState) -> tuple[DensityMatrix, DensityMatrix]:
    """Partial traces over B and over A.

    Both are read off the state's one SVD U S V^dag: the matrices are
    m m^dag and (m^dag m)^T, the spectra S^2 padded with zeros to each
    side's dimension, and the eigenbases U and conj(V).  They are PSD by
    construction, so no eigensolver runs.  The pair is built once per
    state object and returned again on later calls.
    """
    return psi._marginals


def purify(rho: DensityMatrix) -> PureBipartiteState:
    """Standard purification sum_i sqrt(p_i) |e_i>|i> on a twin-dimension system."""
    if not sums_to_one(rho.trace):
        raise StructuralError("purify requires a normalized density matrix")
    m = rho._eigenvectors * np.sqrt(rho.spectrum())
    return PureBipartiteState.from_matrix(m)


def symmetric_purify(rho: DensityMatrix) -> PureBipartiteState:
    """Purification on a twin system with *both* marginals equal to rho.

    Written in the eigenbasis, sum_i sqrt(p_i) |e_i>|e_i> with the second
    factor carried as coordinates, so the coefficient matrix is the
    symmetric matrix E sqrt(diag p) E^T.
    """
    if not sums_to_one(rho.trace):
        raise StructuralError("symmetric_purify requires a normalized density matrix")
    vecs = rho._eigenvectors
    m = (vecs * np.sqrt(rho.spectrum())) @ vecs.T
    return PureBipartiteState.from_matrix(m)


def nielsen_convertible(psi: PureBipartiteState, target: PureBipartiteState) -> bool:
    """LOCC convertibility test for pure states: majorization of Schmidt weights.

    True iff the squared-Schmidt vector of ``psi`` is majorized by that of
    ``target`` (vectors zero-padded to a common length).  Each sums to its
    state's |v|^2, which ``majorizes`` scales out.
    """
    p, q = psi._schmidt_weights, target._schmidt_weights
    if p.size != q.size:
        n = max(p.size, q.size)
        p, q = np.pad(p, (0, n - p.size)), np.pad(q, (0, n - q.size))
    return majorizes(q, p)


def lu_equivalent(psi: PureBipartiteState, other: PureBipartiteState) -> bool:
    """Equivalence under local reversible transformations: equal Schmidt weights.

    The sorted squared Schmidt coefficients must agree within ``SPECTRUM_TOL``.
    """
    if psi.dims != other.dims:
        raise StructuralError("lu_equivalent requires equal dims")
    gap = np.abs(psi._schmidt_weights - other._schmidt_weights)
    return bool(np.max(gap) <= SPECTRUM_TOL)


def local_exchange_channels(psi: PureBipartiteState) -> tuple[KrausChannel, KrausChannel]:
    """Channel pair (C: A->B, D: B->A) realizing the swap on |psi><psi|.

    Built from the Schmidt bases: the partial isometry mapping each left
    vector to its right partner, completed with the projector onto the
    orthocomplement of its support.  Only the square case d_A = d_B is
    supported; rectangular systems would need an isometric embedding.
    """
    da, db = psi.dims
    if da != db:
        raise StructuralError("local_exchange_channels supports d_A = d_B only")
    sd = schmidt_decompose(psi)
    r = sd.rank
    alpha = sd.left_basis[:, :r]
    beta = sd.right_basis[:, :r]
    c = beta @ alpha.conj().T
    d = alpha @ beta.conj().T
    proj_a = np.eye(da) - alpha @ alpha.conj().T
    proj_b = np.eye(db) - beta @ beta.conj().T
    chan_c = KrausChannel((c, proj_a))
    chan_d = KrausChannel((d, proj_b))
    return chan_c, chan_d


def swap_operator(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def product_channel_apply(chan_a: KrausChannel, chan_b: KrausChannel,
                          rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for ka in chan_a.operators:
        for kb in chan_b.operators:
            k = np.kron(ka, kb)
            out = out + k @ rho @ k.conj().T
    return out


# ---------------------------------------------------------------------------
# RaRe synthesis and the one-way protocol
# ---------------------------------------------------------------------------

def rare_synthesis_quantum(rho: DensityMatrix, source: DensityMatrix
                           ) -> list[tuple[float, np.ndarray]]:
    """Weights and unitaries with sum_i w_i U_i source U_i^dag = rho.

    Requires the spectrum of ``source`` to majorize the spectrum of ``rho``.
    The S_n case of the mixing walk (``mixedness._walk_witness``, as in the
    Birkhoff synthesis) runs on the two spectra, and each permutation is
    conjugated by the pair of eigenbases the states keep.  Any orthonormal eigenbasis in spectrum order serves;
    the mixture rebuilds rho within ``WITNESS_TOL``, or the call raises.
    Dimensions above ``mixedness.WALK_MAX_N`` raise ``CapacityError``.
    """
    if rho.dim != source.dim:
        raise StructuralError("dimension mismatch")
    p, q = rho.spectrum(), source.spectrum()
    if not majorizes(q, p):
        raise StructuralError("precondition failed: spectrum of source must majorize target")
    # eigenvectors in spectrum (descending) order
    v, w = rho._eigenvectors, source._eigenvectors
    # sum_perm weight * q[perm] = p, so U = V P W^dag with P[i, perm[i]] = 1
    terms, _ = _walk_witness(q, p, tuple)
    out = [(weight, v @ w[:, list(perm)].conj().T) for weight, perm in terms]
    if _rare_residual(out, source.matrix, rho.matrix) > WITNESS_TOL:
        raise RuntimeError("synthesized mixture misses the target density matrix")
    return out


def _rare_residual(rare: list[tuple[float, np.ndarray]], source: np.ndarray,
                   target: np.ndarray) -> float:
    """Largest entry of sum_i w_i U_i source U_i^dag - target, in magnitude: a RaRe witness's miss."""
    mix = sum(w * u @ source @ u.conj().T for w, u in rare)
    return float(np.max(np.abs(mix - target)))


def _rank_split(u: np.ndarray, s: np.ndarray, vh: np.ndarray):
    """A full SVD U S V^dag split at the rank r: (U_r, S_r, V_r, kernel basis).

    r counts the singular values above ``RELATIVE_RANK_TOL`` times the
    largest, the rule ``pinv`` uses; the columns of V after the r-th span
    the kernel.
    """
    r = int(np.sum(s > s[0] * RELATIVE_RANK_TOL)) if s.size else 0
    return u[:, :r], s[:r], vh[:r].conj().T, vh[r:].conj().T


def _connecting_unitary(svd1: tuple, m2: np.ndarray) -> np.ndarray:
    """Unitary T with M1 T = M2, for matrices with equal row Gram M M^dag.

    ``svd1`` is a full SVD (U, S, V^dag) of M1, and M2 takes one of its
    own; both are split at their rank.  The kept part of M1's gives the
    pseudo-inverse V_r S_r^-1 U_r^dag, and the partial isometry
    pinv(M1) M2 does the job on the row space; the map is completed by the
    isometry between the two kernels.
    """
    u1, s1, v1, k1 = _rank_split(*svd1)
    k2 = _rank_split(*np.linalg.svd(m2))[3]
    t = (v1 / s1) @ (u1.conj().T @ m2) + k1 @ k2.conj().T
    if np.max(np.abs(t.conj().T @ t - np.eye(t.shape[0]))) > UNITARY_TOL:
        raise RuntimeError("connecting map failed to complete to a unitary; "
                           "row Grams probably differ")
    return t


def connecting_local_unitary(psi: PureBipartiteState,
                             other: PureBipartiteState) -> np.ndarray:
    """Unitary W on B with (I x W) psi = other, for equal-marginal purifications."""
    if psi.dims != other.dims:
        raise StructuralError("purifications must share dims")
    t = _connecting_unitary(psi._svd, other.coefficient_matrix())
    return t.T


def one_way_locc_from_rare(psi: PureBipartiteState, target: PureBipartiteState,
                           rare: list[tuple[float, np.ndarray]]) -> OneWayProtocol:
    """One-way protocol converting psi into target, from a RaRe witness.

    ``rare`` must satisfy sum_i w_i U_i rho' U_i^dag = rho, where rho and
    rho' are the A-marginals of psi and target, within ``WITNESS_TOL``, with
    weights that pass ``sums_to_one``.  With M, N the coefficient matrices
    of psi and target and M^+ the pseudo-inverse on psi's SVD (split at its
    rank by ``_rank_split``), Bob's branch i is B_i = sqrt(w_i) (M^+ U_i N)^T
    and Alice's correction is U_i^dag: U_i N lies in the support of
    rho = M M^dag, so M B_i^T = sqrt(w_i) U_i N, and the branches sum to
    conj(M^+ M).  Below full rank on B, one more branch of weight 0,
    conj(K K^dag) for M's kernel K (Alice's correction I), completes them.
    """
    if psi.dims != target.dims:
        raise StructuralError("states must share dims")
    rho = marginals(psi)[0].matrix
    rho_p = marginals(target)[0].matrix
    weights = np.array([w for w, _ in rare])
    if not sums_to_one(weights):
        raise StructuralError("rare weights must be a probability distribution")
    if not _rare_residual(rare, rho_p, rho) <= WITNESS_TOL:
        raise StructuralError("rare decomposition does not map target marginal "
                              "to source marginal within tolerance")

    u_r, s_r, v_r, kernel = _rank_split(*psi._svd)
    m_tgt = target.coefficient_matrix()
    steer = (v_r / s_r) @ u_r.conj().T          # M^+
    weights = np.maximum(weights, 0.0)          # a weight SUM_TOL below zero steers nothing
    bob = [np.sqrt(w) * (steer @ u @ m_tgt).T for w, (_, u) in zip(weights, rare)]
    alice = [u.conj().T for _, u in rare]
    if kernel.shape[1]:
        bob.append(kernel.conj() @ kernel.T)
        alice.append(np.eye(psi.dims[0]))
        weights = np.append(weights, 0.0)
    return OneWayProtocol(tuple(bob), tuple(alice), weights)


# ---------------------------------------------------------------------------
# entanglement measures
# ---------------------------------------------------------------------------

def entanglement_entropy(psi: PureBipartiteState) -> float:
    """Entropy of entanglement in bits: Shannon entropy of Schmidt weights."""
    return _entropy_bits(psi._schmidt_weights)


@dataclass(frozen=True)
class BatchMinimum:
    """What ``minimize`` returns: each start's point and cost at its stop, and the work done.

    ``nfev`` counts objective calls, each of which evaluates every start
    still running; ``nit`` counts the iterations of the start that ran longest.
    """

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    nit: int


def minimize(fun, x0) -> BatchMinimum:
    """Minimize each row (start) of ``x0`` on its own by BFGS, evaluating the running starts together.

    ``fun`` maps an ``(L, n)`` stack of points to their ``(L,)`` costs and
    ``(L, n)`` gradients, row by row.  Each start keeps its own dense inverse
    Hessian H and its own step.  Its first step has length 1 along -g, each
    later one starts at t = 1 along -H g, and a trial that misses the Armijo
    condition (``EOF_ARMIJO``) is cut back to the minimum of the quadratic
    through the cost and slope at 0 and the trial cost, kept within a tenth
    and a half of the step.  H is scaled by s^T y / y^T y before its first
    update, and an update whose curvature s^T y does not exceed
    ``EOF_CURVATURE_FLOOR`` |s| |y| is skipped, which keeps H positive
    definite.  A start stops on the rule of L-BFGS-B: a step lowers its cost
    by at most ``EOF_FTOL`` relatively, or leaves none of its gradient
    entries above ``EOF_GTOL``.  It also stops when a cut-back step no longer
    moves it, and after ``EOF_MAX_ITER`` iterations.  A stopped start is not
    evaluated again, and every start ends where it would end if run alone.
    The EoF calls this through the module attribute, so a caller can rebind
    ``quantum.minimize`` to observe it.
    """
    x = np.array(x0, dtype=float)
    f, g = (np.array(a, dtype=float) for a in fun(x))
    out_x, out_f = x.copy(), f.copy()
    starts, n = x.shape
    rows, nit = np.arange(starts), np.zeros(starts, dtype=int)
    h = np.tile(np.eye(n), (starts, 1, 1))
    d = -g
    slope = -(g * g).sum(axis=1)
    t = 1.0 / np.sqrt(-slope, out=np.ones(starts), where=slope < 0)
    nfev, most = 1, 0
    stop = np.abs(g).max(axis=1) <= EOF_GTOL
    while True:
        if stop.any():
            out_x[rows[stop]], out_f[rows[stop]] = x[stop], f[stop]
            most = max(most, int(nit[stop].max()))
            keep = ~stop
            rows, x, f, g, h, d, slope, t, nit = (
                a[keep] for a in (rows, x, f, g, h, d, slope, t, nit))
            if rows.size == 0:
                return BatchMinimum(out_x, out_f, nfev, most)
        trial = x + t[:, None] * d
        f_new, g_new = fun(trial)
        nfev += 1
        ok = f_new <= f + EOF_ARMIJO * t * slope
        stop = np.zeros(ok.shape, dtype=bool)
        if ok.all():
            a = slice(None)
        else:
            # cut each rejected step back to the minimum of the quadratic through
            # the cost and slope at 0 and the trial cost, kept in [t/10, t/2]
            no, tn = ~ok, t[~ok]
            rise = 2.0 * (f_new[no] - f[no] - slope[no] * tn)
            t[no] = np.fmax(np.fmin(-slope[no] * tn * tn / rise, 0.5 * tn), 0.1 * tn)
            stop[no] = np.all(x[no] + t[no, None] * d[no] == x[no], axis=1)
            if not ok.any():
                continue
            a = ok
        s, y = trial[a] - x[a], g_new[a] - g[a]
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        curved = sy > EOF_CURVATURE_FLOOR * np.sqrt((s * s).sum(axis=1) * yy)
        if not nit.all():
            # H is still the identity at a start's first update: scale it by s^T y / y^T y
            first = curved & (nit[a] == 0)
            h[np.flatnonzero(ok)[first]] *= (sy[first] / yy[first])[:, None, None]
        # rho = 0 skips the update where the curvature would not keep H positive definite
        rho = 1.0 / np.where(curved, sy, np.inf)
        u = rho[:, None] * (h[a] @ y[..., None])[..., 0]
        w = (rho * (1.0 + (y * u).sum(axis=1)))[:, None] * s - u
        # H += rho (1 + rho y^T H y) s s^T - rho (s (Hy)^T + Hy s^T) = s w^T - u s^T
        h[a] += (np.concatenate([s[..., None], u[..., None]], axis=2)
                 @ np.concatenate([w[:, None], -s[:, None]], axis=1))
        scale = np.maximum(np.maximum(np.abs(f[a]), np.abs(f_new[a])), 1.0)
        stop[a] |= ((f[a] - f_new[a] <= EOF_FTOL * scale)
                    | (np.abs(g_new[a]).max(axis=1) <= EOF_GTOL))
        x[a], f[a], g[a] = trial[a], f_new[a], g_new[a]
        nit[a] += 1
        d[a] = -(h[a] @ g[a][..., None])[..., 0]
        slope[a] = (g[a] * d[a]).sum(axis=1)
        t[a] = 1.0
        stop |= nit >= EOF_MAX_ITER


def _roof_cost(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble cost of each stack of subnormalized members (rows) and its gradient.

    ``phi`` is an ``(S, m, 4)`` stack of S ensembles of m members each, or
    one ``(m, 4)`` ensemble; the costs come back one per ensemble, the
    gradient in the shape of ``phi``.
    A member phi = (a, b, c, d) of weight q = |phi|^2 and D = |ad - bc|^2
    costs q h2((1 - s)/2) with s = sqrt(1 - 4D/q^2), the weight times the
    entropy of its marginal.  The gradient is the Wirtinger derivative
    dC/d(conj phi) = C_q phi + C_D det (conj d, -conj c, -conj b, conj a), with
    C_q = h2 - 2 (D/q^2) g(s), C_D = g(s)/q and g(s) = 2 artanh(s)/(s ln 2).
    """
    q = (phi.real ** 2 + phi.imag ** 2).sum(axis=-1)
    det = phi[..., 0] * phi[..., 3] - phi[..., 1] * phi[..., 2]
    good = q > EOF_WEIGHT_FLOOR
    q_safe = np.where(good, q, 1.0)
    ratio = (det.real ** 2 + det.imag ** 2) / q_safe ** 2
    s = np.sqrt(np.maximum(1.0 - 4.0 * ratio, 0.0))     # ratio >= 0, so s <= 1
    # binary entropy of the marginal spectrum ((1 - s)/2, (1 + s)/2); 0 log 0 = 0
    low, high = (1.0 - s) / 2.0, (1.0 + s) / 2.0
    h = -(low * np.log(low, out=np.zeros(low.shape), where=low > 0)
          + high * np.log(high)) / np.log(2.0)
    # g(s) diverges at product members (s = 1) and tends to 2/ln 2 at s = 0;
    # s is either 0 or at least the square root of the machine epsilon, since
    # 1 - 4 ratio is, so the division is safe
    sc = np.minimum(s, EOF_ARTANH_CLIP)
    g = np.divide(np.arctanh(sc), sc, out=np.ones(sc.shape), where=sc > 0) * (2.0 / np.log(2.0))
    c_q = np.where(good, h - 2.0 * ratio * g, 0.0)
    c_d = np.where(good, g / q_safe, 0.0)
    swapped = phi[..., ::-1].conj() * np.array([1.0, -1.0, -1.0, 1.0])
    grad = c_q[..., None] * phi + (c_d * det)[..., None] * swapped
    return np.sum(np.where(good, q * h, 0.0), axis=-1), grad


def _orthonormalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR of each matrix of the stack z, with the diagonal of R made real positive."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) > PHASE_FLOOR, d / np.abs(d), 1.0)
    return q * d[..., None, :], r * d.conj()[..., :, None]


def _roof_objective(params: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble cost of Q(Z_k) @ roots for each start k, and each start's gradient.

    Row k of ``params`` is start k: the real parts of its m x r matrix Z_k,
    then the imaginary parts; Q(Z) is the isometry of the positive-diagonal
    QR.  The costs come back one per row, the gradients in the shape of
    ``params``, each pulled back through QR: with G_Q = G_phi roots^H and
    B = Q^H G_Q,
    G_Z = [(I - Q Q^H) G_Q + Q (tril(B - B^H, -1) + i diag(Im B))] R^{-H}.
    """
    starts, r = params.shape[0], roots.shape[0]
    half = params.shape[1] // 2
    z = (params[:, :half] + 1j * params[:, half:]).reshape(starts, -1, r)
    q_mat, r_mat = _orthonormalize(z)
    costs, g_phi = _roof_cost(q_mat @ roots)
    g_q = g_phi @ roots.conj().T
    b = q_mat.conj().swapaxes(-1, -2) @ g_q
    inner = np.tril(b - b.conj().swapaxes(-1, -2), -1)
    diag = np.arange(r)
    inner[:, diag, diag] = 1j * b[:, diag, diag].imag
    y = g_q - q_mat @ (b - inner)
    g_z = np.linalg.solve(r_mat, y.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return costs, 2.0 * np.concatenate([g_z.real.reshape(starts, half),
                                        g_z.imag.reshape(starts, half)], axis=1)


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Convex-roof entanglement of formation for a two-qubit state, in ebits.

    Minimizes the ensemble-average marginal entropy over decompositions of
    rho into ``max(EOF_MEMBERS, rank)`` pure members, parameterized by
    isometries applied to the eigen-ensemble: BFGS with the closed-form
    convex-roof gradient over QR-parametrised isometries (the variational
    method of Audenaert, Verstraete & De Moor, PRA 64, 052304 (2001)).
    ``EOF_STARTS`` starts run side by side in one call of ``minimize``, each
    with its own inverse Hessian, step and stop; the first is the
    eigen-ensemble itself and the others rotate it by random unitaries drawn
    from the fixed ``EOF_SEED``, so the value is a function of rho alone.  A
    start stops when a step lowers its own cost by less than ``EOF_FTOL``
    relatively, or when none of its gradient entries exceeds ``EOF_GTOL``;
    the value is the lowest start's cost at its stop.  A rank-1 state (rank
    counted on the eigenvalues the state keeps) is pure: its value is the
    cost of its top eigenpair, whose phase does not change it, and the
    optimizer does not run.
    """
    if rho.dim != 4:
        raise StructuralError("entanglement_of_formation supports 2x2 systems only")
    if not sums_to_one(rho.trace):
        raise StructuralError("state must be normalized")
    r = int(np.count_nonzero(rho._eigenvalues > RANK_TOL))
    if r == 1:
        top = rho._eigenvectors[:, 0] * np.sqrt(rho._eigenvalues[0])
        return float(_roof_cost(top[None, :])[0])
    # the top r eigenpairs, each vector's first significant component made real positive
    vals, vecs = rho._eigenvalues[:r], rho._eigenvectors[:, :r]
    roots = (vecs / _lead_phases(vecs) * np.sqrt(vals)).T     # (r, 4) subnormalized eigen-members
    m = max(EOF_MEMBERS, r)
    rng = np.random.default_rng(EOF_SEED)
    z0 = np.stack([np.eye(m, r)] + [
        np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0][:, :r]
        for _ in range(EOF_STARTS - 1)])
    p0 = np.concatenate([z0.real.reshape(EOF_STARTS, -1), z0.imag.reshape(EOF_STARTS, -1)], axis=1)
    return float(minimize(lambda params: _roof_objective(params, roots), p0).fun.min())


@dataclass(frozen=True)
class ErasureCertificate:
    """2-norm witness for (im)possibility of catalytic erasure."""

    possible: bool
    purity: float
    margin: float

    def __bool__(self) -> bool:
        return self.possible

    def to_dict(self) -> dict:
        return {"possible": self.possible, "purity": self.purity, "margin": self.margin}


def catalytic_erasure_possible(rho: DensityMatrix) -> ErasureCertificate:
    """Erasure with any catalyst is possible iff the state is already pure.

    Random-unitary mixing cannot increase Tr(rho^2) while erasure of a mixed
    state would; the certificate reports Tr(rho^2) and the strict-inequality
    margin 1 - Tr(rho^2).
    """
    if not sums_to_one(rho.trace):
        raise StructuralError("state must be normalized")
    purity = rho.purity()
    margin = max(0.0, 1.0 - purity)
    return ErasureCertificate(possible=purity >= 1.0 - MONOTONE_TOL, purity=purity,
                              margin=margin)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_pure_state(dims: tuple[int, int], rng: np.random.Generator) -> PureBipartiteState:
    """Haar-random unit vector on d_A x d_B; dims below 1 are refused before any draw."""
    da, db = dims
    if da < 1 or db < 1:
        raise StructuralError(f"dims must be positive, got {da}x{db}")
    v = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    return PureBipartiteState(dims, v / np.linalg.norm(v))


def random_density_matrix(d: int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    """Random d x d state of the given rank (default d), from a complex Gaussian G G^dag.

    A dimension below 1 or a rank outside 1..d is refused before any draw.
    """
    if d < 1:
        raise StructuralError(f"dimension must be positive, got {d}")
    rank = d if rank is None else rank
    if not 1 <= rank <= d:
        raise StructuralError(f"rank must be in 1..{d}, got {rank}")
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary, from the QR decomposition of a complex Gaussian matrix;
    a dimension below 1 is refused before any draw."""
    if d < 1:
        raise StructuralError(f"dimension must be positive, got {d}")
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
