"""chooselab: machinery checks for multi-fold list-coloring reduction proofs.

Plane-graph substrate (rotation systems, face tracing, degree classes),
exhaustive multi-fold choosability at desk scale, a symbolic engine for
reduction schemes, the reducible-configuration catalog, and exact
discharging with rule-table audits.
"""

from .plane import (PlaneGraph, Face, DegreeClass, build_plane_graph,
                    trace_faces, degree_class, consecutive)
from .multicolor import (validate_coloring, find_coloring,
                         enumerate_assignments_canonical, choosable,
                         colorable_ab, TooLarge)
from .reduction import (Delete, Save, PairSave, Color, AssumeSet,
                        AssumeThreeSets, SymbolicState, ConcreteState,
                        run_scheme, run_scheme_all_splits, run_scheme_concrete,
                        three_sets_pick, three_sets_feasible, SchemeTrace)
from .nice import frontier_split, is_nice, profile, NiceProfile
from .claims import (list_claims, claim_ids, build_claim, verify_claim,
                     verify_all, UnknownClaim)
from .key_lemma import verify_case, verify_all_cases
from .discharging import (initial_charges, apply_rules, final_charges,
                          face_type, lambda_pattern, classify_family,
                          audit_family_partition, audit_transfer_observations,
                          audit_inequality_6plus, audit_case_ledger,
                          sweep_4face, twelfths_str)

__version__ = "0.1.0"
