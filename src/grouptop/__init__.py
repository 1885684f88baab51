"""Exact-arithmetic verification toolkit for group topologies determined
by converging families of sets."""

from .groups import (
    AmbientGroup,
    CayleyGroup,
    FreeGroup,
    GroupElement,
    GroupMismatchError,
    Integers,
    NotAGroupError,
    ProductMod,
    Rationals,
    load_cayley,
    op_add,
    op_conjugate,
    op_neg,
    op_sub,
    op_sum,
)
from .setspec import (
    BoxSet,
    FiniteSet,
    FoldTable,
    ResidueSet,
    SetSpec,
    StarSet,
    SymmetricInterval,
    TailSet,
    contains,
    n_fold_star,
    spec_from_json,
    star,
    subset_of,
    sumset,
)
from .prefixsum import (
    MembershipResult,
    prefix_sum_membership,
)
from .filters import (
    ChainFamily,
    CofiniteFamily,
    ExplicitFamily,
    SeparationCertificate,
    StuckReport,
    check_directed,
    cupcap_check,
    family_from_json,
    hausdorff_verdict,
    separating_sequence,
)
from .report import Status, VerificationReport

__version__ = "0.1.0"
