"""Effective good divisibility of rational homogeneous varieties.

Exact Weyl group combinatorics for all finite types: Bruhat order,
parabolic quotients, degree sweeps for effective good divisibility,
maximal disjoint Schubert pairs with type-D pullback classification,
and a constancy test for morphisms between marked diagrams.
"""

from .bruhat import (
    bruhat_leq,
    elements_of_length,
    quotient_dimension,
    quotient_elements_of_length,
    subword_oracle,
)
from .dynkin import DynkinSpec, group_order, is_proper_subdiagram, parabolic_order
from .engine import (
    EdResult,
    MarkedDiagram,
    MdPair,
    MorphismVerdict,
    classify_md_pairs,
    closed_form_ed,
    effective_divisibility,
    get_context,
    has_egd_up_to,
    md_pairs,
    morphism_constancy,
)
from .errors import (
    BadLetter,
    ContextMismatch,
    DegreeOutOfRange,
    EgdError,
    EmptyMarkedSet,
    Infeasible,
    InvalidRank,
    LengthOutOfRange,
    NonReducedInput,
    NotClassical,
    NotTypeD,
)
from .parabolic import (
    CodimData,
    Decomposition,
    DnDistinguished,
    codims,
    decompose,
    dn_distinguished,
    is_opposite_pullback,
    is_schubert_pullback,
    longest_in_WJ,
    longest_in_quotient,
    spinor_coset_words,
    stumbo_word,
)
from .weyl import (
    WeylElement,
    WeylGroupContext,
    Word,
    build_group,
    format_word,
    parse_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
