"""modlift: decide mod-p to mod-p^2 liftability of finite group
representations, with machine-checkable certificates either way."""

from .rings import (
    AffineSystem,
    Consistent,
    Inconsistent,
    Mat,
    Poly,
    PrimeCtx,
    binom_div_p,
    merge_kernel_element,
    nullspace,
    solve_affine,
    split_kernel_element,
)
from .groups import (
    BadSubgroup,
    FiniteGroup,
    Presentation,
    Subgroup,
    find_subgroup_witness,
    is_listed_family,
    sylow,
    transversal,
)
from .replift import (
    LiftCertificate,
    LiftVerdict,
    LinearizedSystem,
    Representation,
    brute_force_lift,
    check_lift,
    direct_sum,
    induce,
    linearize,
    relator_defect,
    restrict,
    validate_rep,
    verify_certificate,
)
from .obstruction import (
    GroupAlgebraElement,
    ThetaClass,
    cyclic_witness,
    module_of_quotient,
    q_polynomial,
    theta,
)
from .cyclic_lift import (
    companion_lift,
    cyclotomic_factors,
    find_divisor_lift,
    liftable_jordan_sizes,
)
from .classify import (
    ClassificationVerdict,
    canonical_witness,
    catalog,
    classify,
    witness_for_group,
)

__version__ = "0.1.0"
