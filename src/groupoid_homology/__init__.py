"""Exact homology and K-theory for groupoid presentations.

The package computes, in exact integer arithmetic, the homology of the
ample groupoids attached to two kinds of finite presentations:

* higher-rank graph skeletons: k pairwise commuting non-negative vertex
  matrices (kgraph module);
* actions of Z^k on a finite set by k commuting permutations
  (dr_finite module).

Both reduce to the homology of a complex built from commuting integer
endomorphisms (koszul module) over an exact Smith-normal-form engine
(exact_linalg module). Groups are reported in invariant-factor form
(abelian module). The cli module exposes everything as subcommands.
"""

from .abelian import TRIVIAL, Z, FgAbGroup, HomologyProfile, direct_sum, tensor, tor
from .errors import (
    BrokenComplex,
    DimensionMismatch,
    GroupoidHomologyError,
    HypothesisViolated,
    NoIntegerSolution,
    NonCommuting,
    NotACycle,
    NotBijective,
    RankUnsupported,
    SchemaError,
    SkeletonInvalid,
)
from .dr_finite import ZkAction, orbit_count, orbit_oracle, to_koszul, validate_action
from .exact_linalg import (
    IntMatrix,
    SnfResult,
    cokernel,
    det,
    kernel_basis,
    snf,
    solve_columns,
    track_entry_growth,
    xgcd,
)
from .kgraph import (
    HkReport,
    KGraphSkeleton,
    KTheoryResult,
    cubical_homology_rank1,
    groupoid_homology,
    hk_report,
    ktheory,
    kunneth,
    product,
    single_vertex_closed_form,
    validate,
)
from .koszul import KoszulComplex, build, homology, verify_shift_identity

__all__ = [
    "FgAbGroup",
    "HkReport",
    "HomologyProfile",
    "IntMatrix",
    "KGraphSkeleton",
    "KTheoryResult",
    "KoszulComplex",
    "SnfResult",
    "TRIVIAL",
    "Z",
    "ZkAction",
    "build",
    "cokernel",
    "cubical_homology_rank1",
    "det",
    "direct_sum",
    "groupoid_homology",
    "hk_report",
    "homology",
    "kernel_basis",
    "ktheory",
    "kunneth",
    "orbit_count",
    "orbit_oracle",
    "product",
    "single_vertex_closed_form",
    "snf",
    "solve_columns",
    "tensor",
    "to_koszul",
    "tor",
    "track_entry_growth",
    "validate",
    "validate_action",
    "verify_shift_identity",
    "xgcd",
    "BrokenComplex",
    "DimensionMismatch",
    "GroupoidHomologyError",
    "HypothesisViolated",
    "NoIntegerSolution",
    "NonCommuting",
    "NotACycle",
    "NotBijective",
    "RankUnsupported",
    "SchemaError",
    "SkeletonInvalid",
]

__version__ = "0.1.0"
