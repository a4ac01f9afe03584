"""Exact symbolic computations in generalized loop Schroedinger-Virasoro algebras.

The package is organized around one algebra object per group configuration:

    >>> from loopsv import GroupData, LoopAlgebra
    >>> alg = LoopAlgebra(GroupData.default())
    >>> L = lambda a, i: alg.monomial(alg.key("L", a, i))
    >>> str(alg.bracket(L(1, 0), L(2, 3)))
    'L(3,3)'

Everything downstream (derivations, automorphisms, cohomology) works with
exact scalars and verifies its own output on a finite window before
returning it.

Importing the package loads none of its modules: each exported name loads
the module that defines it on first use, so a process pays only for the
modules it uses.
"""

from importlib import import_module as _import_module

# the names each module exports, as its __all__ lists them
_EXPORTS = {
    "algebra": ("BasisKey", "Element", "Window", "LoopAlgebra", "antisymmetry_witnesses", "jacobi_witnesses"),
    "automorphisms": (
        "Scale", "LoopShift", "CharTwist", "ZFlip", "LoopScale", "MShearData", "MShear", "Inner", "Word",
        "compose", "automorphism_defect", "automorphism_witnesses", "tuple_word", "fold_tuple_params",
        "conjugated_shear", "factor", "FactoredAutomorphism", "iso_test",
    ),
    "cohomology": (
        "LinearFunctional", "Cocycle", "TableCocycle", "CombinationCocycle", "make_phi_k", "make_coboundary",
        "cocycle_defect", "cocycle_witnesses", "normalizing_functional", "ReducedCocycle", "reduce_cocycle",
        "ExtendedElement", "CentralExtension", "central_extend",
    ),
    "derivations": (
        "Operator", "HomToLaurent", "GAffine", "GTable", "CanonicalDerivation", "make_D_phi", "make_D_g",
        "make_D_b", "make_D_rho", "make_ad", "derivation_defect", "derivation_witnesses", "degree_decompose",
        "reduce_nonzero_degree", "canonical_decompose_degree0", "hom_quotient_witness", "operators_agree",
        "table_operator",
    ),
    "errors": (
        "LsvError", "GroupConfigError", "GroupMismatchError", "InvalidKeyError", "ShapeError", "DomainError",
        "FactorError", "NotACocycleError", "OutputError", "ParseError",
    ),
    "groups": ("GroupData",),
    "laurent": ("LaurentPoly",),
    "parser": ("parse_element", "parse_key", "parse_laurent"),
    "scalars": ("Scalar", "ZERO", "ONE", "HALF", "parse_scalar", "is_squarefree"),
    "solvers": ("nullspace", "g_constraint_space", "shear_constraint_space"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(_import_module(f"{__name__}.{module}"), name)
            globals()[name] = value  # later lookups find it without this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
