"""Every numeric tolerance and threshold of the package, one name per meaning.

Each verdict the package reports rests on a floating-point identity or
inequality checked against one of these names, and every module imports
them from here.  Names that a module exported before (``core.ATOL``,
``simplex.PIVOT_TOL``, ``mixedness.RESIDUAL_TOL``, ``quantum.HERM_TOL`` and
so on) stay importable from that module.  Iteration caps and other work
budgets are not tolerances and live with the code they bound.  Box world
is exact and needs none of them.

Each meaning has one value: whether weights, a state's norm or a trace
sum to one is decided by ``core.sums_to_one`` against ``SUM_TOL``.  Names
that look alike guard different quantities:

* ``MAJORIZATION_TOL``: partial sums of two vectors ``SUM_TOL`` accepted, and
  in general the fundamental-weight coefficients of G-majorization, of which
  those partial sums are the S_n case;
* ``RESIDUAL_TOL``: the rebuild by LP weights, which pivots on scaled data
  leave past 1e-9 near a hull boundary (45000 orbit LPs on classical-3..6,
  square bit, pentagon, gaps 0..1e-9: up to 1.14e-9, one would raise at
  1e-9); a synthesized witness, built in closed form, holds ``WITNESS_TOL``;
* ``PROTOCOL_TOL``: each branch of a one-way protocol, which takes square
  roots of the weights past the RaRe mixture ``WITNESS_TOL`` bounds;
* ``EOF_WEIGHT_FLOOR`` drops EoF members, whose gradient divides by the
  weight and its square, sooner than ``ENTROPY_FLOOR`` drops entropy terms.
"""

# ---------------------------------------------------------------------------
# GPT systems, mixedness and the simplex
# ---------------------------------------------------------------------------

#: polytope and group identities: vertex and unit-effect matches, effect ranges, orbit
#: points, and h^T M h = M for the averaged Gram form M (scaled by max(1, max|M|))
ATOL = 1e-9
#: a group element with |det| below this is singular
SINGULAR_DET_TOL = 1e-12
#: a simplex reduced cost, pivot entry, ratio gap or right-hand side this small is zero
PIVOT_TOL = 1e-10
#: largest phase-1 optimum (sum of artificials) still reported as feasible
FEASIBILITY_TOL = 1e-9
#: largest reconstruction error of a feasible certificate's weights (not WITNESS_TOL: see above)
RESIDUAL_TOL = 1e-8
#: inputs whose largest entry exceeds this are refused as ill-conditioned
MAX_SCALE = 1e12
#: largest value of a normalised Farkas functional on any generator
FARKAS_VIOLATION_TOL = 1e-7
#: smallest value of a normalised Farkas functional on the target
FARKAS_MIN_SEPARATION = 1e-9

# ---------------------------------------------------------------------------
# weights, distributions and witnesses
# ---------------------------------------------------------------------------

#: an entry this close to zero is zero: margins, steps between Schmidt coefficients, and
#: the mixing walk's weighted rises and slacks (``mixedness._caratheodory_walk``)
ZERO_TOL = 1e-12
#: weights (or a state's norm, a trace, |v|^2) sum to one within this; no weight below -SUM_TOL
SUM_TOL = 1e-9
#: G-majorization slack on each coefficient of rho_top - sigma_top on the fundamental
#: weights, <w_i, rho_top - sigma_top>_M with roots of M-length sqrt(2) and sigma scaled to
#: rho's total; for S_n in standard coordinates these are the partial-sum gaps of
#: ``majorizes``, with q's partial sums scaled to p's total
MAJORIZATION_TOL = 1e-10
#: a synthesized witness (Birkhoff, quantum RaRe, swap channels) and the RaRe
#: mixture a one-way protocol is built from rebuild their targets within this
WITNESS_TOL = 1e-9
#: every branch of a one-way protocol hits its target within this
PROTOCOL_TOL = 1e-8
#: the sum of K^dag K over Kraus operators or instrument branches is I within this
TRACE_PRESERVING_TOL = 1e-9

# ---------------------------------------------------------------------------
# quantum states
# ---------------------------------------------------------------------------

#: largest entry of M - M^dag in a matrix accepted as Hermitian
HERM_TOL = 1e-10
#: most negative eigenvalue accepted in a density matrix
PSD_TOL = 1e-10
#: largest entry of B^dag B - I in a basis accepted as orthonormal
ORTHONORMAL_TOL = 1e-10
#: eigenvalues and Schmidt coefficients at or below this are outside the support
RANK_TOL = 1e-12
#: singular values at or below this fraction of the largest are outside the row space
RELATIVE_RANK_TOL = 1e-12
#: the first component above this sets a unit vector's phase (it is made real positive)
LEAD_TOL = 1e-9
#: a complex number below this in magnitude has no phase (taken as 1)
PHASE_FLOOR = 1e-14
#: two spectra (marginal eigenvalues, squared Schmidt coefficients) are equal within this
SPECTRUM_TOL = 1e-9
#: largest entry of T^dag T - I for a completed connecting map to count as unitary
UNITARY_TOL = 1e-8

# ---------------------------------------------------------------------------
# monotones and entropies
# ---------------------------------------------------------------------------

#: values of a purity monotone within this of each other count as equal
MONOTONE_TOL = 1e-9
#: Tr((rho x gamma)^2) equals Tr(rho^2) Tr(gamma^2) within this
MULTIPLICATIVITY_TOL = 1e-10
#: excess of f at a midpoint over its chord that the convexity probe forgives
CONVEXITY_TOL = 1e-12
#: condition number above which the group-averaged Gram form is degenerate
MAX_GRAM_CONDITION = 1e10
#: probabilities at or below this add nothing to a Shannon entropy
ENTROPY_FLOOR = 1e-15
#: EoF ensemble members lighter than this carry no cost and no gradient
EOF_WEIGHT_FLOOR = 1e-14
#: largest s fed to artanh in the EoF gradient, which diverges at product members (s = 1)
EOF_ARTANH_CLIP = 1.0 - 1e-15
#: a start of the EoF BFGS stops when a step lowers its cost by less than this, relatively
#: (the stop rule of L-BFGS-B, applied to each start). The stop only ends a start's run, so
#: its iterates up to it are those of any tighter stop, and a tighter one gains no digit: on
#: 1741 seeded states (ranks 2-4, Werner states, separable mixtures) the worst gap to the
#: closed-form concurrence value was 3.2e-8 here and at 1e-14 under the joint L-BFGS-B run
#: that came before, and the per-start BFGS keeps the Tier-1 sweep's worst gap at 2.27e-8,
#: as that run did, in 30 objective evaluations per call on average (47 before)
EOF_FTOL = 1e-10
#: a start of the EoF BFGS stops when no gradient entry exceeds this
EOF_GTOL = 1e-11
#: an EoF BFGS step is accepted when it lowers the cost by this share of the
#: decrease the slope at its start predicts (the Armijo condition)
EOF_ARMIJO = 1e-4
#: an EoF BFGS update is skipped unless s^T y exceeds this multiple of |s| |y|,
#: which keeps each start's inverse Hessian positive definite
EOF_CURVATURE_FLOOR = 1e-10
