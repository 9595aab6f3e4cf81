"""Mould calculus, arborification, paralogarithmic resurgence monomials and
saddle-node synthesis.

Layers, bottom up:

- values:     Gaussian rationals, exact literals, and the accumulation
              kernel (sparse_sum, linear_sum) every sum of products uses
- words:      decorated words and forests, shuffles, contracting shuffles,
              linear extensions and contracting covers (two countings)
- moulds:     mould product/composition/inverses, symmetry checks,
              arborification, built-in scalar moulds, transition expansions
- series:     truncated u-series; their sums and products are sparse_sum
              calls
- operators:  homogeneous derivations, comoulds, (contracted)
              coarborification, exact mould-comould contraction
- quadrature: the exp-sinh half-line rule and Gauss-Legendre on a segment
- bessel:     in-house modified Bessel K0 and K1
- kernels:    the saddle-node kernel g_{c,omega}, its Laplace transform by
              one half-line rule, and its Bessel-K1 closed form
- monomials:  hyperlogarithmic V and paralogarithmic Ua/Uc/Ue evaluations,
              forest values, growth scans, the r=1 singularity probe
- synthesis:  normalizer assembly, conjugated field, convergence
              diagnostics, linear Riemann-Hilbert demo
- cli:        batch front door (`armould` command)
"""

from .values import GaussianRational, format_exact, parse_exact
from .words import (
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    Tree,
    Word,
    contracting_covers,
    contracting_shuffle,
    forest,
    forests_of_norm,
    letter,
    linear_extensions,
    parse_forest,
    parse_word,
    shuffle,
    tree,
    word,
)
from .moulds import (
    AlienWordExpansion,
    ArMould,
    Mould,
    arborify,
    builtin_mould,
    check_symmetry,
    mould_compose,
    mould_inverse_comp,
    mould_inverse_mul,
    mould_mul,
    organic_growth_report,
    symmetral_from_letter_weights,
    symmetrel_geometric,
    transition_apply,
)
from .series import TruncatedSeries
from .operators import (
    DerivationFamily,
    DiffOperator,
    coarborify_contracted,
    coarborify_homogeneous,
    contract_forest_sum,
    contract_word_sum,
    op_compose_word,
    restricted_norm,
)
from .kernels import (
    KernelDomainError,
    KernelParams,
    f_closed_form_oracle,
    f_eval,
    g_eval,
    g_sup_bound,
)
from .bessel import bessel_k0, bessel_k1
from .monomials import (
    CONTRACTION_UNIT,
    ContourError,
    ContourSpec,
    MOULD_NORMALIZATION,
    MonomialValue,
    borel_pole_probe,
    growth_scan,
    hyperlog_V_eval,
    paralog_Ua_eval,
    paralog_forest_eval,
    paralog_variants,
)
from .synthesis import (
    InvariantFamily,
    SynthesisConfig,
    SynthesisError,
    SynthesizedField,
    build_theta,
    conjugate_normal_field,
    convergence_report,
    linear_rh_synthesize,
    synthesize,
)

__version__ = "0.1.0"
