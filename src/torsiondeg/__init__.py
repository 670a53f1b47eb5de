"""torsiondeg: degree divisibility machinery for torsion points.

Finite verification of the GL2(F_p) subgroup case analysis (orbit and
stabilizer divisibility), modular curve degree thresholds, density analytics
for divisor-structured degree sets, and CM divisibility constants.

The public names resolve lazily (PEP 562): `torsiondeg.classify` imports
`torsiondeg.gl2` on first use, so importing the package, or one layer of
it, loads no other layer.
"""

from importlib import import_module

from ._version import VERSION as __version__

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "arith": (
        "divisors", "euler_phi", "factorize", "glm_order", "is_prime",
        "minkowski_bound", "ord_p", "phi_preimage_divisors", "primes_upto",
    ),
    "gl2": (
        "DicksonClass", "ProjectiveType", "Subgroup",
        "UnclassifiableSubgroupError", "classify", "close_generators",
        "enumerate_subgroups", "standard_subgroups",
    ),
    "orbits": (
        "LineStabilizerReport", "OrbitReport", "PointwiseBoundReport",
        "stabilizer", "verify_case_divisibility",
        "verify_nonsplit_pointwise_stabilizers",
        "verify_split_pointwise_stabilizers",
    ),
    "curvedeg": (
        "SemigroupSpec", "closed_point_degree_threshold", "genus_x1",
        "min_guaranteed_degree", "representable", "rr_degree_bound",
        "stable_bound",
    ),
    "families": (
        "BEpsilonResult", "DivClause", "FamilyProfile", "IntegerSetSpec",
        "PrimePowerDivClause", "PrimeShiftClause", "b_epsilon_procedure",
        "b_eps_dominates", "density_upto", "erdos_wagstaff_set",
        "find_cutoff_C", "profile_from_dict", "spec_from_dict",
    ),
    "cmbounds": (
        "CmBoundSet", "allowed_exponents", "c_of_g", "cm_p1_exponent",
        "cm_profile", "gr_check", "h_bound", "mu_bound",
    ),
}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
