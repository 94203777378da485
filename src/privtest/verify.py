"""Randomized verification suites tying the implementation to its theory.

Each suite checks one identity or inequality with an independent oracle
(simplex grids, exhaustive enumeration, exact finite-horizon errors) against
the fast analytical path, over seeded random instances.  The command-line
``verify`` subcommand runs them; the acceptance test module reuses them.
A suite takes at most a seed and a trial count: its tolerance, grid step
and horizons are the module constants below, and each result reports the
tolerance it was held to.

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
    _enumerated_errors,
    _law_set_rates,
    _lower_bound,
    _type_class_errors,
    exponent_composite,
    exponent_sanov,
)
from .errors import ValidationError
from .model import (
    UP_PAIRS,
    OutputLaws,
    PolicySpace,
    SourceModel,
    blockwise_extend,
    demo_model,
    induced_output_laws,
    policy_space,
    product_laws,
    source_laws,
)
from .optimizer import (
    MONOTONICITY_SLACK,
    GuaranteeConfig,
    SearchConfig,
    monotonicity_check,
)
from .probkit import Pmf, chernoff_information, composite_chernoff_primal_oracle, composite_chernoff

#: The suites' fixed settings: the oracles' simplex grid step, each
#: comparison's tolerance, the horizons of the lower-bound suite (by sequence
#: enumeration, then by type classes) and of the convergence suite, the
#: supply slack of the random kernels, the monotonicity suite's lambda and
#: the floor of :func:`random_pmf`.
_GRID_STEP = 1e-3
_IDENTITY_TOL = 1e-6
_PRIMAL_DUAL_TOL = 1e-3
_THREE_WAY_TOL = 2e-3
_CONVERGENCE_TOL = 0.02
_TENSORIZE_TOL = 1e-9
_ENUM_HORIZONS = tuple(range(1, 11))
_TYPE_HORIZONS = (100, 400)
_CONVERGENCE_HORIZONS = (100, 200, 400, 800)
_KERNEL_S = 2.0
_MONOTONIC_LAMBDA = 0.1
_PMF_FLOOR = 1e-3


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


def random_pmf(rng: np.random.Generator, size: int) -> Pmf:
    """A full-support pmf: Dirichlet(1) with a small floor, renormalized."""
    w = np.maximum(rng.dirichlet(np.ones(size)), _PMF_FLOOR)
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
    rng: np.random.Generator, model: SourceModel, space: PolicySpace
) -> OutputLaws:
    """Induced laws of a random feasible kernel of ``space``, a family on ``model``."""
    return induced_output_laws(model, space.kernel_from_params(space.random_params(rng, 1)[0]))


def _chernoff_rates(law_sets: Sequence[OutputLaws]) -> list[list[float]]:
    """``rate[l][t]``: the Chernoff rate of law set ``l`` for
    ``tuple(TestTarget)[t]``, the value :func:`~privtest.bayes.exponent_chernoff`
    gives, with every law set (all of one block length and alphabet) scored
    in one :func:`~privtest.bayes._law_set_rates` call."""
    stack = np.stack([laws.arrays() for laws in law_sets])
    utility, privacy, _, _ = _law_set_rates(stack, law_sets[0].k)
    return np.column_stack([utility, privacy]).tolist()


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_composite_identity(seed: int = 0, trials: int = 200) -> SuiteResult:
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
    return SuiteResult("composite-identity", worst <= _IDENTITY_TOL, trials, worst, _IDENTITY_TOL)


def suite_primal_dual(seed: int = 0, trials: int = 50) -> SuiteResult:
    """The dual maximization must match the brute-force primal grid oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b, c = random_binary_triple(rng)
        dual = composite_chernoff(a, b, c)
        primal = composite_chernoff_primal_oracle(a, b, c, _GRID_STEP)
        worst = max(worst, abs(dual - primal))
    return SuiteResult(
        "composite-primal-dual", worst <= _PRIMAL_DUAL_TOL, trials, worst, _PRIMAL_DUAL_TOL
    )


def suite_exponent_consistency(seed: int = 0, trials: int = 20) -> SuiteResult:
    """Chernoff, composite, and Sanov exponent forms agree on both targets."""
    rng = np.random.default_rng(seed)
    law_sets = [source_laws(demo_model())] + [random_binary_laws(rng) for _ in range(trials)]
    worst = 0.0
    for laws, rates in zip(law_sets, _chernoff_rates(law_sets)):
        for target, rate in zip(TestTarget, rates):
            values = (
                rate,
                exponent_composite(laws, target).value,
                exponent_sanov(laws, target, _GRID_STEP).value,
            )
            worst = max(worst, max(values) - min(values))
    return SuiteResult(
        "exponent-three-way", worst <= _THREE_WAY_TOL, trials + 1, worst, _THREE_WAY_TOL
    )


def suite_exponent_bound(seed: int = 0, trials: int = 50) -> SuiteResult:
    """(1/n) log(1/alpha) >= rate - log(8 p_max)/n for random kernels.

    The inequality must hold with zero violations; ``worst`` reports the
    smallest observed slack (negative would be a violation).
    """
    rng = np.random.default_rng(seed)
    model = demo_model()
    space = policy_space(model, _KERNEL_S, 1)
    draws = [random_kernel_laws(rng, model, space) for _ in range(trials)]
    stack = np.stack([laws.arrays() for laws in draws])
    targets = tuple(TestTarget)
    # rate[trial][target], alpha[trial, target, horizon], then log
    # alpha[trial, target] per type horizon
    rates = _chernoff_rates(draws)
    enumerated = _enumerated_errors(stack, model.prior, targets, _ENUM_HORIZONS).tolist()
    typed = [_type_class_errors(stack, model.prior, targets, n).tolist() for n in _TYPE_HORIZONS]
    min_slack = math.inf
    violations = 0
    for trial in range(trials):
        for t in range(len(targets)):
            exponents = [
                math.log(1.0 / alpha) / n
                for alpha, n in zip(enumerated[trial][t], _ENUM_HORIZONS)
            ] + [-log_alpha[trial][t] / n for log_alpha, n in zip(typed, _TYPE_HORIZONS)]
            for exponent, n in zip(exponents, (*_ENUM_HORIZONS, *_TYPE_HORIZONS)):
                slack = exponent - _lower_bound(rates[trial][t], model.prior, space.k * n)
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


def suite_convergence() -> SuiteResult:
    """Empirical exponents approach the Chernoff-form limit on the demo model."""
    model = demo_model()
    laws = source_laws(model)
    targets = tuple(TestTarget)
    # log alpha[target] per horizon, both targets in one pass
    log_alphas = [
        _type_class_errors(laws.arrays()[None], model.prior, targets, n)[0].tolist()
        for n in _CONVERGENCE_HORIZONS
    ]
    worst_final = 0.0
    monotone = True
    for t, limit in enumerate(_chernoff_rates([laws])[0]):
        gaps = [
            abs(-log_alpha[t] / n - limit)
            for log_alpha, n in zip(log_alphas, _CONVERGENCE_HORIZONS)
        ]
        monotone &= all(b < a for a, b in zip(gaps, gaps[1:]))
        worst_final = max(worst_final, gaps[-1])
    return SuiteResult(
        "exponent-convergence",
        monotone and worst_final <= _CONVERGENCE_TOL,
        len(_CONVERGENCE_HORIZONS) * 2,
        worst_final,
        _CONVERGENCE_TOL,
        detail=f"gaps decreasing: {monotone}",
    )


def suite_tensorization(seed: int = 0, trials: int = 10) -> SuiteResult:
    """Block-wise extension: product laws and preserved per-slot Chernoff rate."""
    rng = np.random.default_rng(seed)
    model = demo_model()
    space = policy_space(model, _KERNEL_S, 1)
    kernels = [space.kernel_from_params(space.random_params(rng, 1)[0]) for _ in range(trials)]
    law_sets = [induced_output_laws(model, kernel) for kernel in kernels]
    extended = [induced_output_laws(model, blockwise_extend(kernel, 2)) for kernel in kernels]
    worst = 0.0
    for laws, ext_laws, (_, rate), (_, ext_rate) in zip(
        law_sets, extended, _chernoff_rates(law_sets), _chernoff_rates(extended)
    ):
        expect = product_laws(laws, 2)
        law_delta = float(np.abs(ext_laws.arrays() - expect.arrays()).max())
        worst = max(worst, law_delta, abs(ext_rate - rate))
    return SuiteResult(
        "blockwise-tensorization", worst <= _TENSORIZE_TOL, trials, worst, _TENSORIZE_TOL
    )


def suite_monotonicity(seed: int = 0) -> SuiteResult:
    """Optimized rate at k=1 dominates the optimized rate at n=2."""
    model = demo_model()
    cfg = GuaranteeConfig(lam=_MONOTONIC_LAMBDA, k=1, s=1.0, include_correction=False)
    report = monotonicity_check(model, cfg, l=2, search=SearchConfig(seed=seed))
    excess = report.point_n.privacy_rate - report.point_k.privacy_rate
    ext_gap = abs(report.extended_rate - report.point_k.privacy_rate)
    ok = report.holds and report.extended_feasible and ext_gap <= 1e-9
    return SuiteResult(
        "blocklength-monotonicity",
        ok,
        1,
        excess,
        MONOTONICITY_SLACK,
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
    """Run the named suites in order; ``seed`` (at least 0) seeds each suite,
    ``trials`` (at least 1) overrides each suite's default count, and the
    fixed-size suites ignore it.  Both are checked before any suite runs."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if trials is not None and trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        results.append(SUITES[name](**kwargs))
    return results
