"""Exact computation with pre-Frobenius structures and quantum products.

The package is organized in layers:

``rings`` / ``linalg``   exact scalars (rationals, Laurent polynomials,
                         truncated series) and dense matrices over them.
``presaito``             families of flat-bundle data (a point is the family
                         over the empty base), the relation checkers, tensor
                         and wedge of families, and JSON interchange.
``projective``           the small quantum family of projective space and its
                         point at q = 1.
``grassmann``            the alternate product on Grassmannian cohomology and
                         its rim-hook oracle.
``deform``               the Hertling-Manin extension recursion, the Frobenius
                         potential, and plane curve counts.
``mirror``               torus mirrors, Jacobian algebras, and the comparison
                         of wedge spectra with the quantum side.
``cli``                  the ``altfrob`` command-line front end.
"""

from .deform import (
    DeformationProblem,
    InvariantViolation,
    NotPrePrimitive,
    expand_trivial_in_log,
    gw_pn2,
    hm_extend,
    potential,
    potential_to_json,
    problem_from_json,
    problem_to_json,
    trivial_deformation_problem,
    universal_big_quantum,
    wdvv_oracle,
    word_basis,
)
from .grassmann import (
    PartitionMatrix,
    QLRTable,
    alt_metric,
    alt_structure_constants,
    alternant,
    complement_partition,
    lr_count,
    rect_partitions,
    rimhook_oracle,
    rimhook_reduce,
    schur_poly,
    vandermonde,
)
from .linalg import (
    Mat,
    charpoly,
    det,
    kron,
    kron_sum,
    wedge_indices,
    wedge_metric,
    wedge_of_sum,
)
from .mirror import (
    JacobianAlgebra,
    compare_quantum_gm,
    convenience_witness,
    jacobian_algebra,
    kouchnirenko_bound,
    mirror_brieskorn,
    mirror_f,
    mult_f_matrix,
    subset_sum_charpoly,
    torus_relations,
    torus_vars,
)
from .presaito import (
    BaseVar,
    FrobeniusData,
    NotPrimitive,
    PreSaitoFamily,
    Report,
    check_metric,
    check_pre_saito,
    dumps_family,
    family_from_json,
    family_to_json,
    frobenius_data,
    loads_family,
    tensor,
    trivial_deformation,
    wedge,
)
from .projective import build_pn, pn_small_family
from .rings import Laurent, Series

__version__ = "0.1.0"

__all__ = [
    "BaseVar",
    "DeformationProblem",
    "FrobeniusData",
    "InvariantViolation",
    "JacobianAlgebra",
    "Laurent",
    "Mat",
    "NotPrePrimitive",
    "NotPrimitive",
    "PartitionMatrix",
    "PreSaitoFamily",
    "QLRTable",
    "Report",
    "Series",
    "alt_metric",
    "alt_structure_constants",
    "alternant",
    "build_pn",
    "charpoly",
    "check_metric",
    "check_pre_saito",
    "compare_quantum_gm",
    "complement_partition",
    "convenience_witness",
    "det",
    "dumps_family",
    "expand_trivial_in_log",
    "family_from_json",
    "family_to_json",
    "frobenius_data",
    "gw_pn2",
    "hm_extend",
    "jacobian_algebra",
    "kouchnirenko_bound",
    "kron",
    "kron_sum",
    "loads_family",
    "lr_count",
    "mirror_brieskorn",
    "mirror_f",
    "mult_f_matrix",
    "pn_small_family",
    "potential",
    "potential_to_json",
    "problem_from_json",
    "problem_to_json",
    "rect_partitions",
    "rimhook_oracle",
    "rimhook_reduce",
    "schur_poly",
    "subset_sum_charpoly",
    "tensor",
    "torus_relations",
    "torus_vars",
    "trivial_deformation",
    "trivial_deformation_problem",
    "universal_big_quantum",
    "vandermonde",
    "wdvv_oracle",
    "wedge",
    "wedge_indices",
    "wedge_metric",
    "wedge_of_sum",
    "word_basis",
]
