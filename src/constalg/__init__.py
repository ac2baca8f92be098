"""Exact constructions for algebras of constants of triangular derivations.

Given d and nonconstant univariate polynomials f_1(x_1), ..., f_d(x_d),
the derivation sending x_i to 0 and y_i to f_i(x_i) has an algebra of
constants generated by the x_i and the pair determinants
u_jk = f_j(x_j)*y_k - f_k(x_k)*y_j.  This package builds the generators
and their defining relations, machine-verifies the reduced Groebner-basis
property under the DILL order, enumerates the normal-word vector-space
basis, and constructively rewrites any constant in the generators.  All
arithmetic is exact rational.
"""

from .derivation import (
    ProblemInstance,
    apply_delta,
    f_adic_expand,
    is_constant,
    load_instance,
)
from .errors import (
    BudgetExceededError,
    ConstalgError,
    InstanceError,
    NotAConstantError,
    ParseError,
    PeelingError,
    RingMismatchError,
)
from .groebner import (
    GroebnerCertificate,
    buchberger_complete,
    claimed_lead_monomials,
    reduce,
    s_polynomial,
    verify_groebner,
    verify_lead_conformance,
    verify_reduced,
)
from .normal_words import (
    IndependenceResult,
    KernelBasis,
    count_normal_words,
    enumerate_normal_words,
    independence_check,
    is_normal_word,
    kernel_dim_oracle,
    lead_of_image,
    recover_word_from_lead,
    rewrite_constant,
)
from .orders import (
    CORRECTED,
    LITERAL,
    DillOrder,
    LexOrder,
    dill_compare,
    dill_key,
)
from .poly import (
    RING_A,
    RING_P,
    AMonomial,
    PMonomial,
    Polynomial,
    Ring,
    format_monomial,
    format_poly,
    leading_term,
    parse_poly,
    ring_a,
    ring_p,
    u_pairs,
    u_var,
    x_var,
    y_var,
)
from .presentation import (
    GeneratorTable,
    RelationSet,
    build_generators,
    build_relations,
    mixed_relation,
    pi_substitute,
    quadratic_relation,
)

__version__ = "0.1.0"
