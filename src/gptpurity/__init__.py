"""Resource theories of purity and pure-state entanglement, at desk scale.

Single-system GPT machinery (states, effects, finite reversible groups),
the group-majorization mixedness relation with checked certificates, purity
monotones, a quantum backend (Schmidt data, purifications, convertibility,
one-way protocols, convex-roof entanglement), exact box-world correlations,
and seeded cross-validation suites for the duality between the two
resource theories.
"""

from .core import (CapacityError, Effect, GptState, InvalidSystemError, Measurement,
                   StructuralError, TheorySystem, load_system, make_classical, make_polygon,
                   make_square_bit, save_system, system_from_dict, system_to_dict, validate_system)
from .mixedness import (FeasibilityCertificate, IllConditionedError, RaReChannel,
                        birkhoff_rare_synthesis, equally_mixed,
                        feasible_convex_combination, invariant_state, majorizes,
                        more_mixed, orbit_hull, validate_state)
from .monotones import (ConvexScalarFn, MonotoneReport, UnsupportedSystemError,
                        builtin_monotones, f_purity, measurement_entropy,
                        op_norm_distance, op_norm_report, purity_2norm,
                        schur_convexity_check)
from .quantum import (DensityMatrix, ErasureCertificate, KrausChannel,
                      OneWayProtocol, PureBipartiteState, SchmidtData,
                      catalytic_erasure_possible, connecting_local_unitary,
                      entanglement_entropy, entanglement_of_formation,
                      local_exchange_channels, lu_equivalent, marginals,
                      maximally_entangled, nielsen_convertible,
                      one_way_locc_from_rare, purify, random_density_matrix,
                      random_pure_state, random_unitary, rare_synthesis_quantum,
                      schmidt_decompose, symmetric_purify)
from .boxworld import (BoxInvariantError, BoxState, LocalRelabeling,
                       apply_relabeling, check_local_exchangeability, is_extreme,
                       pr_box_k, standard_pr_box, swap_parties)
from .harness import (SuiteReport, TrialConfig, replay_classical_counterexample,
                      replay_duality_counterexample, run_catalyst_suite,
                      run_classical_agreement_suite, run_duality_suite,
                      run_maximal_entanglement_suite)

__version__ = "0.1.0"
