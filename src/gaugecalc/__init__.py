"""Numerical gauge calculus on the flat 2-torus and the punctured plane."""

__version__ = "0.1.0"

from .algebra import (E1, E2, E3, LEVI_CIVITA, SIGMA, SIGMA1, SIGMA2, SIGMA3,
                      SU2_BASIS, bracket, dagger, exp_antihermitian, inner,
                      is_antihermitian, mat_exp, random_antihermitian,
                      require_antihermitian)
from .forms import (ANTIHERMITIAN, GENERAL, MatrixForm, TorusGrid, VectorField,
                    constant_form, exterior_d, form_from_json, form_from_record,
                    form_to_json, form_to_record, hodge_star, interior,
                    l2_inner, l2_norm, scalar_form, sharp, tensor_form,
                    wedge_compose, zero_form)
from .gauge import (FLAT_TOL, Connection, codifferential, codifferential_flat,
                    connection_from_record, connection_to_record, covariant_d,
                    curvature, gauge_transform, laplacian_apply, require_flat,
                    residual_report, wedge_action, wedge_action_adjoint,
                    yang_mills_functional, yang_mills_residual,
                    yang_mills_residual_covariant, zero_connection)
from .spectrum import antihermitian_basis, harmonic_space_dim, laplacian_matrix
from .curves import (ClaimReport, ConnectionCurve, PerturbationJets, Su2Ansatz,
                     curve_jets, decompose_su2, flat_curve_report,
                     gauge_orbit_curve, harmonic_projection, seam_family_form,
                     su2_potential, su2_ym_conditions, torus_family_curve,
                     torus_family_report, ym_curve_report)
from .holonomy import (AnalyticTorusPotential, GaugeConjugatedPotential,
                       GridPotential, MeromorphicPotential, MonodromyRecord,
                       ParametricPath, SpinPhaseRecord, aharonov_bohm_monodromy,
                       aharonov_casher_phase, circle_path, concat_paths,
                       monodromy_representation, parallel_transport,
                       reverse_path, segment_path, torus_circle, torus_loop,
                       wilson_loop, wong_evolve)
