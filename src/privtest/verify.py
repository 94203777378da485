"""Randomized verification suites tying the implementation to its theory.

Each suite checks one identity or inequality with an independent oracle
(simplex grids, exhaustive enumeration, exact finite-horizon errors) against
the fast analytical path, over seeded random instances.  The command-line
``verify`` subcommand runs them; the acceptance test module reuses them.

Where a suite compares against a grid oracle, the random instances are drawn
with moderate divergences so that the oracle's own resolution bias
(grid step times the objective gradient at the active constraint) stays
below the suite tolerance; steeper instances would measure the oracle's
bias, not the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bayes import (
    TestTarget,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_composite,
    exponent_lower_bound,
    exponent_sanov,
    exponent_chernoff,
)
from .model import (
    UP_PAIRS,
    OutputLaws,
    SourceModel,
    blockwise_extend,
    demo_model,
    induced_output_laws,
    policy_space,
    product_laws,
    source_laws,
)
from .optimizer import (
    GuaranteeConfig,
    SearchConfig,
    monotonicity_check,
    privacy_objective,
)
from .probkit import Pmf, chernoff_information, composite_chernoff_primal_oracle, composite_chernoff


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    trials: int
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (
            f"[{status}] {self.name}: trials={self.trials} "
            f"worst={self.worst:.3e} tol={self.tolerance:.1e}{extra}"
        )


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def random_pmf(rng: np.random.Generator, size: int, floor: float = 1e-3) -> Pmf:
    """A full-support pmf: Dirichlet(1) with a small floor, renormalized."""
    w = np.maximum(rng.dirichlet(np.ones(size)), floor)
    return Pmf(labels=tuple(range(size)), probs=tuple(w / w.sum()))


def random_binary_triple(rng: np.random.Generator) -> tuple[Pmf, Pmf, Pmf]:
    """Binary triples with moderate pairwise separation (see module docs)."""
    base = rng.uniform(0.25, 0.75)
    thetas = [base]
    for _ in range(2):
        off = rng.uniform(0.05, 0.15) * (1.0 if rng.uniform() < 0.5 else -1.0)
        thetas.append(min(max(base + off, 0.05), 0.95))
    return tuple(Pmf.bernoulli(t) for t in thetas)


def random_binary_laws(rng: np.random.Generator) -> OutputLaws:
    """Four random Bernoulli per-slot laws (an identity-policy style model)."""
    labels = ((0.0,), (1.0,))
    laws = {}
    for up in UP_PAIRS:
        theta = float(rng.uniform(0.2, 0.8))
        laws[up] = Pmf(labels=labels, probs=(theta, 1.0 - theta))
    return OutputLaws(k=1, laws=laws)


def random_kernel_laws(
    rng: np.random.Generator, model: SourceModel, s: float = 2.0
) -> OutputLaws:
    """Induced laws of a random feasible k=1 kernel on ``model``."""
    space = policy_space(model, s, 1)
    params = np.zeros(space.dim)
    for _, start, stop in space.free_slices:
        f = stop - start + 1
        params[start:stop] = rng.dirichlet(np.ones(f))[:-1]
    kernel = space.kernel_from_params(params)
    return induced_output_laws(model, kernel)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_composite_identity(seed: int = 0, trials: int = 200, tolerance: float = 1e-6) -> SuiteResult:
    """The min over both composite-divergence orders of (a; b, c) must equal
    the smaller of the two plain Chernoff informations C(a||b), C(a||c)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        size = int(rng.integers(2, 6))
        a, b, c = (random_pmf(rng, size) for _ in range(3))
        lhs = min(composite_chernoff(a, b, c), composite_chernoff(a, c, b))
        rhs = min(chernoff_information(a, b), chernoff_information(a, c))
        worst = max(worst, abs(lhs - rhs))
    return SuiteResult("composite-identity", worst <= tolerance, trials, worst, tolerance)


def suite_primal_dual(
    seed: int = 0, trials: int = 50, grid_step: float = 1e-3, tolerance: float = 1e-3
) -> SuiteResult:
    """The dual maximization must match the brute-force primal grid oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b, c = random_binary_triple(rng)
        dual = composite_chernoff(a, b, c)
        primal = composite_chernoff_primal_oracle(a, b, c, grid_step)
        worst = max(worst, abs(dual - primal))
    return SuiteResult("composite-primal-dual", worst <= tolerance, trials, worst, tolerance)


def _three_way_worst(laws: OutputLaws, grid_step: float) -> float:
    worst = 0.0
    for target in TestTarget:
        reports = (
            exponent_chernoff(laws, target),
            exponent_composite(laws, target),
            exponent_sanov(laws, target, grid_step),
        )
        values = [r.value for r in reports]
        worst = max(worst, max(values) - min(values))
    return worst


def suite_exponent_consistency(
    seed: int = 0, trials: int = 20, grid_step: float = 1e-3, tolerance: float = 2e-3
) -> SuiteResult:
    """Chernoff, composite, and Sanov exponent forms agree on both targets."""
    rng = np.random.default_rng(seed)
    worst = _three_way_worst(source_laws(demo_model()), grid_step)
    for _ in range(trials):
        worst = max(worst, _three_way_worst(random_binary_laws(rng), grid_step))
    return SuiteResult(
        "exponent-three-way", worst <= tolerance, trials + 1, worst, tolerance
    )


def suite_exponent_bound(
    seed: int = 0,
    trials: int = 50,
    enum_horizons: Sequence[int] = tuple(range(1, 11)),
    type_horizons: Sequence[int] = (100, 400),
) -> SuiteResult:
    """(1/n) log(1/alpha) >= rate - log(8 p_max)/n for random kernels.

    The inequality must hold with zero violations; ``worst`` reports the
    smallest observed slack (negative would be a violation).
    """
    rng = np.random.default_rng(seed)
    model = demo_model()
    min_slack = math.inf
    violations = 0
    for _ in range(trials):
        laws = random_kernel_laws(rng, model, s=2.0)
        for target in TestTarget:
            for n in enum_horizons:
                alpha = exact_min_error(laws, model.prior, target, n)
                bound = exponent_lower_bound(laws, model.prior, target, n_blocks=n)
                slack = math.log(1.0 / alpha) / n - bound
                min_slack = min(min_slack, slack)
                violations += slack < 0.0
            for n in type_horizons:
                log_alpha = exact_min_error_iid_log(laws, model.prior, target, n)
                bound = exponent_lower_bound(laws, model.prior, target, n_blocks=n)
                slack = -log_alpha / n - bound
                min_slack = min(min_slack, slack)
                violations += slack < 0.0
    return SuiteResult(
        "exponent-lower-bound",
        violations == 0,
        trials,
        -min_slack,
        0.0,
        detail=f"violations={violations} (worst = negated smallest slack)",
    )


def suite_convergence(
    horizons: Sequence[int] = (100, 200, 400, 800), final_tolerance: float = 0.02
) -> SuiteResult:
    """Empirical exponents approach the Chernoff-form limit on the demo model."""
    model = demo_model()
    laws = source_laws(model)
    worst_final = 0.0
    monotone = True
    for target in TestTarget:
        limit = exponent_chernoff(laws, target).value
        gaps = []
        for n in horizons:
            log_alpha = exact_min_error_iid_log(laws, model.prior, target, n)
            gaps.append(abs(-log_alpha / n - limit))
        monotone &= all(b < a for a, b in zip(gaps, gaps[1:]))
        worst_final = max(worst_final, gaps[-1])
    return SuiteResult(
        "exponent-convergence",
        monotone and worst_final <= final_tolerance,
        len(horizons) * 2,
        worst_final,
        final_tolerance,
        detail=f"gaps decreasing: {monotone}",
    )


def suite_tensorization(seed: int = 0, trials: int = 10, tolerance: float = 1e-9) -> SuiteResult:
    """Block-wise extension: product laws and preserved per-slot Chernoff rate."""
    rng = np.random.default_rng(seed)
    model = demo_model()
    space = policy_space(model, 2.0, 1)
    worst = 0.0
    for _ in range(trials):
        params = np.zeros(space.dim)
        for _, start, stop in space.free_slices:
            f = stop - start + 1
            params[start:stop] = rng.dirichlet(np.ones(f))[:-1]
        kernel = space.kernel_from_params(params)
        laws = induced_output_laws(model, kernel)
        extended = blockwise_extend(kernel, 2)
        ext_laws = induced_output_laws(model, extended)
        expect = product_laws(laws, 2)
        law_delta = max(
            abs(pa - pb)
            for up in UP_PAIRS
            for pa, pb in zip(ext_laws.laws[up].probs, expect.laws[up].probs)
        )
        rate_delta = abs(privacy_objective(ext_laws) - privacy_objective(laws))
        worst = max(worst, law_delta, rate_delta)
    return SuiteResult("blockwise-tensorization", worst <= tolerance, trials, worst, tolerance)


def suite_monotonicity(
    seed: int = 0, lam: float = 0.1, slack: float = 1e-3
) -> SuiteResult:
    """Optimized rate at k=1 dominates the optimized rate at n=2."""
    model = demo_model()
    cfg = GuaranteeConfig(lam=lam, k=1, s=1.0, include_correction=False)
    report = monotonicity_check(model, cfg, l=2, search=SearchConfig(seed=seed), slack=slack)
    excess = report.point_n.privacy_rate - report.point_k.privacy_rate
    ext_gap = abs(report.extended_rate - report.point_k.privacy_rate)
    ok = report.holds and report.extended_feasible and ext_gap <= 1e-9
    return SuiteResult(
        "blocklength-monotonicity",
        ok,
        1,
        excess,
        slack,
        detail=(
            f"opt_k={report.point_k.privacy_rate:.6f} "
            f"opt_n={report.point_n.privacy_rate:.6f} "
            f"extension feasible={report.extended_feasible}"
        ),
    )


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "identity": suite_composite_identity,
    "primal-dual": suite_primal_dual,
    "exponents": suite_exponent_consistency,
    "lower-bound": suite_exponent_bound,
    "convergence": lambda seed=0, trials=0: suite_convergence(),
    "tensorize": suite_tensorization,
    "monotonic": lambda seed=0, trials=0: suite_monotonicity(seed=seed),
}


def run_suites(names: Sequence[str], seed: int = 0, trials: int | None = None) -> list[SuiteResult]:
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        results.append(SUITES[name](**kwargs))
    return results
