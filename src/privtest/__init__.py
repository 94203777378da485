"""Privacy-utility trade-off analysis for Bayesian composite hypothesis tests.

The package computes divergence kernels (KL, Chernoff information, and the
two-parameter composite divergence), exact finite-horizon Bayes errors,
asymptotic
error exponents, and optimal randomized management policies subject to a
utility-test guarantee.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetError,
    CrossCheckError,
    EnumerationCapError,
    FeasibilityError,
    NumericalError,
    PrivtestError,
    SizeCapError,
    SupportError,
    ValidationError,
)
from .probkit import (
    DualPoint,
    Pmf,
    chernoff_information,
    chernoff_information_with_argmax,
    kl_divergence,
    composite_chernoff_primal_oracle,
    composite_chernoff,
    composite_chernoff_with_argmax,
    composite_chernoff_dual,
)
from .model import (
    Alphabet,
    OutputLaws,
    PolicyKernel,
    PolicySpace,
    Prior,
    SourceModel,
    blockwise_extend,
    constant_policy,
    demo_model,
    identity_policy,
    induced_output_laws,
    load_model,
    load_policy,
    policy_space,
    product_laws,
    source_laws,
    validate_policy,
)
from .bayes import (
    ExponentMethod,
    ExponentReport,
    TestTarget,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_composite,
    exponent_lower_bound,
    exponent_sanov,
    exponent_chernoff,
)
from .optimizer import (
    GuaranteeConfig,
    MonotonicityReport,
    SearchConfig,
    TradeoffPoint,
    asymptotic_guarantee,
    guarantee_check,
    monotonicity_check,
    optimize_policy,
    tradeoff_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
