"""Exact-arithmetic construction and certification of Grassmannian designs.

Subspace configurations are built from lattice minimal sections, from joint
eigenspaces of lifted isotropic subspaces, and from spreads in binary
quadratic spaces; their design strength (2-, 4-, 6-designs) is certified
with zero numerical error.
"""

from .exactalg import (RatMatrix, Rational, det, rat, rat_str, rref,
                       solve_nonneg_combination, trace_pow)
from .zonal import (Partition, ZonalPolynomial, constant_c, jacobi_p,
                    moment_oracle)
from .grassmann import (Configuration, DesignReport, Subspace, eval_zonal,
                        principal_power_sums, projector, sigma, verify_design,
                        zonal_positivity)
from .lattice import (Lattice, RankinValue, SectionSet, barnes_wall, catalog,
                      check_eutaxy, check_perfection, minimal_sections,
                      rankin, short_vectors)
from .binquad import (IsoSubspace, QuadSpace, SigmaSet, check_iso_design,
                      d_constant, enumerate_isotropic, orbital, spread)
from .clifford import (GeneratorSet, PauliOp, StabilizerLift, build_design,
                       clifford_generators, eigenspaces, h2_code_matrix,
                       orbit, sigma_pair, tensor_coeffs,
                       tensor_coeffs_from_system, verify_tt)

__version__ = "0.1.0"
