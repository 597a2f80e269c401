"""Exact derangement search in permutation groups with two equal orbits.

The package bundles a small computational group theory engine, exact
fixed-point-free-element analysis, hyperplane-cover counting over finite
fields, Goursat-style subdirect product enumeration, and a verification
pipeline with a command line frontend.
"""

from .corpus import (
    CorpusEntry,
    GroupCorpus,
    enumerate_transitive,
    group_json,
    load_corpus,
    parse_group_json,
    save_corpus,
)
from .cover import (
    CoverInstance,
    Hyperplane,
    check_cover,
    d_sequences,
    good_count_bruteforce,
    good_count_formula,
    min_cover_search,
    tight_cover_construct,
)
from .derangements import (
    CertificateError,
    Inconclusive,
    PndrValue,
    SylowCertificate,
    TwoOrbitAction,
    classify_case,
    count_nonderangements,
    find_derangement_detailed,
    pndr,
    sylow_certificate,
)
from .gf import FieldError, FieldSpec
from .group import GroupError, PermutationGroup, ResourceCapExceeded
from .perm import MAX_DEGREE, Perm, PermError
from .pipeline import VerificationReport, VerifyCaps, emit_report, verify_degree
from .structure import conjugacy_classes, normal_subgroups, sylow_subgroup
from .subdirect import (
    SubdirectDescriptor,
    goursat_enumerate,
    materialize_group,
    subdirect_derangement,
)
from .subgroups import ElementTable, subgroup_classes

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CorpusEntry",
    "CoverInstance",
    "ElementTable",
    "FieldError",
    "FieldSpec",
    "GroupCorpus",
    "GroupError",
    "Hyperplane",
    "Inconclusive",
    "MAX_DEGREE",
    "Perm",
    "PermError",
    "PermutationGroup",
    "PndrValue",
    "ResourceCapExceeded",
    "SubdirectDescriptor",
    "SylowCertificate",
    "TwoOrbitAction",
    "VerificationReport",
    "VerifyCaps",
    "check_cover",
    "classify_case",
    "conjugacy_classes",
    "count_nonderangements",
    "d_sequences",
    "emit_report",
    "enumerate_transitive",
    "find_derangement_detailed",
    "good_count_bruteforce",
    "good_count_formula",
    "goursat_enumerate",
    "group_json",
    "load_corpus",
    "materialize_group",
    "min_cover_search",
    "normal_subgroups",
    "parse_group_json",
    "pndr",
    "save_corpus",
    "subdirect_derangement",
    "subgroup_classes",
    "sylow_certificate",
    "sylow_subgroup",
    "tight_cover_construct",
    "verify_degree",
    "__version__",
]
