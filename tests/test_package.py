"""The package's public surface: the names the CLI, the suites and callers use."""

import privtest

PUBLIC = [
    "Alphabet", "AlphabetError", "CrossCheckError", "DualPoint", "EnumerationCapError",
    "ExponentMethod", "ExponentReport", "FeasibilityError", "GuaranteeConfig",
    "MonotonicityReport", "NumericalError", "OutputLaws", "Pmf", "PolicyKernel", "PolicySpace",
    "Prior", "PrivtestError", "SearchConfig", "SizeCapError", "SourceModel", "SupportError",
    "TestTarget", "TradeoffPoint", "ValidationError", "asymptotic_guarantee", "bayes",
    "blockwise_extend", "chernoff_information", "chernoff_information_with_argmax",
    "composite_chernoff", "composite_chernoff_dual", "composite_chernoff_primal_oracle",
    "composite_chernoff_with_argmax", "constant_policy", "demo_model", "errors",
    "exact_min_error", "exact_min_error_iid_log", "exponent_chernoff", "exponent_composite",
    "exponent_lower_bound", "exponent_sanov", "guarantee_check", "identity_policy",
    "induced_output_laws", "kl_divergence", "load_model", "load_policy", "model",
    "monotonicity_check", "optimize_policy", "optimizer", "policy_space",
    "probkit", "product_laws", "source_laws", "tradeoff_sweep",
    "validate_policy",
]


def test_public_surface():
    assert sorted(privtest.__all__) == PUBLIC
