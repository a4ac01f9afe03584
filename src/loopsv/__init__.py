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
"""

from .algebra import (
    BasisKey,
    Element,
    LoopAlgebra,
    Window,
    antisymmetry_witnesses,
    jacobi_witnesses,
)
from .automorphisms import (
    CharTwist,
    FactoredAutomorphism,
    Inner,
    LoopScale,
    LoopShift,
    MShear,
    MShearData,
    Scale,
    Word,
    ZFlip,
    automorphism_defect,
    automorphism_witnesses,
    compose,
    conjugated_shear,
    factor,
    fold_tuple_params,
    iso_test,
    tuple_word,
)
from .cohomology import (
    CentralExtension,
    Cocycle,
    CombinationCocycle,
    ExtendedElement,
    LinearFunctional,
    ReducedCocycle,
    TableCocycle,
    central_extend,
    cocycle_defect,
    cocycle_witnesses,
    make_coboundary,
    make_phi_k,
    normalizing_functional,
    reduce_cocycle,
)
from .derivations import (
    CanonicalDerivation,
    GAffine,
    GTable,
    HomToLaurent,
    Operator,
    canonical_decompose_degree0,
    degree_decompose,
    derivation_defect,
    derivation_witnesses,
    hom_quotient_witness,
    make_D_b,
    make_D_g,
    make_D_phi,
    make_D_rho,
    make_ad,
    operators_agree,
    reduce_nonzero_degree,
    table_operator,
)
from .errors import (
    DomainError,
    FactorError,
    GroupConfigError,
    GroupMismatchError,
    InvalidKeyError,
    LsvError,
    NotACocycleError,
    OutputError,
    ParseError,
    ShapeError,
)
from .groups import GroupData
from .laurent import LaurentPoly
from .parser import parse_element, parse_key, parse_laurent
from .scalars import HALF, ONE, ZERO, Scalar, is_squarefree, parse_scalar
from .solvers import g_constraint_space, nullspace, shear_constraint_space

__version__ = "0.1.0"
