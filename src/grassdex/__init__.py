"""Exact-arithmetic construction and certification of Grassmannian designs.

Subspace configurations are built from lattice minimal sections, from joint
eigenspaces of lifted isotropic subspaces, and from spreads in binary
quadratic spaces; their design strength (2-, 4-, 6-designs) is certified
with zero numerical error.

The names below are re-exported from their submodules, each loaded on the
first read of one of its names (PEP 562), so `import grassdex` loads no
submodule and a command pays only for the layers it uses.
"""

import importlib

# submodule -> the names it re-exports.
_EXPORTS = {
    "exactalg": ("RatMatrix", "Rational", "det", "rat", "rat_str", "rref",
                 "solve_nonneg_combination", "trace_pow"),
    "zonal": ("Partition", "ZonalPolynomial", "constant_c", "jacobi_p",
              "moment_oracle"),
    "grassmann": ("Configuration", "DesignReport", "Subspace", "eval_zonal",
                  "principal_power_sums", "sigma", "verify_design",
                  "zonal_positivity"),
    "lattice": ("Lattice", "RankinValue", "SectionSet", "barnes_wall",
                "catalog", "check_eutaxy", "check_perfection",
                "minimal_sections", "rankin", "section_subspaces",
                "short_vectors"),
    "binquad": ("IsoSubspace", "QuadSpace", "SigmaSet", "check_iso_design",
                "d_constant", "enumerate_isotropic", "orbital", "spread"),
    "clifford": ("GeneratorSet", "PauliOp", "StabilizerLift", "build_design",
                 "clifford_generators", "eigenspaces", "h2_code_matrix",
                 "orbit", "sigma_pair", "tensor_coeffs",
                 "tensor_coeffs_from_system", "verify_tt"),
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
