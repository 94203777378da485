"""Exact Bayesian composite hypothesis tests and their error exponents.

A composite test observes a sequence drawn from one of four laws indexed by
(u, p) and decides one coordinate of the pair: the *utility* test decides u,
grouping the laws by u with prior weights, and the *privacy* test decides p.

Three independent routes to the asymptotic error exponent are implemented.
The Chernoff route takes k-block laws; the other two stay at k = 1:

* ``exponent_chernoff``: the minimum Chernoff information over the four
  cross-group law pairs, divided by k (the rate of ``exponent_lower_bound``),
* ``exponent_composite``: the minimum of eight composite Chernoff
  divergence evaluations,
* ``exponent_sanov``: a brute-force large-deviations computation over a
  simplex grid of empirical distributions, classifying each grid pmf with
  the asymptotic type-based test.

They must agree (the test suite holds them to 2e-3 with the grid at 1e-3).
Finite-horizon quantities are exact: ``exact_min_error`` enumerates output
sequences, ``exact_min_error_iid_log`` enumerates type classes in log space;
both check their result against [0, 1] and the best constant decision.
Type classes and Sanov grid points both come from the chunked numpy lattice
:func:`privtest.probkit.composition_lattice` and are scored a chunk at a
time (millions of type classes per second; the count grows like n^(m-1)
and is capped).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, SupportError, ValidationError
from .model import UP_PAIRS, OutputLaws, Prior, _row_outer
from .probkit import (
    DEFAULT_ENUM_CAP,
    _grid_steps,
    chernoff_from_probs,
    composite_chernoff,
    composition_lattice,
    kl_rows,
)


class TestTarget(enum.Enum):
    """Which hypothesis the composite test decides."""

    __test__ = False  # not a pytest class, despite the name

    UTILITY = "utility"
    PRIVACY = "privacy"


class ExponentMethod(enum.Enum):
    CHERNOFF = "chernoff"
    COMPOSITE = "composite"
    SANOV = "sanov"


@dataclass(frozen=True)
class ExponentReport:
    """An error exponent plus the law pair achieving it and the method used."""

    value: float
    argmin_pair: tuple[tuple[int, int], tuple[int, int]]
    method: ExponentMethod


def _side_laws(target: TestTarget, hypothesis: int) -> tuple[tuple[int, int], ...]:
    """The (u,p) indices whose laws belong to hypothesis value ``hypothesis``."""
    if target is TestTarget.UTILITY:
        return ((hypothesis, 0), (hypothesis, 1))
    return ((0, hypothesis), (1, hypothesis))


def grouped_pairs(target: TestTarget) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The four cross-group law pairs whose Chernoff informations matter.

    Utility: (p_{Y|1,pb}, p_{Y|0,pt}); privacy: (p_{Y|ub,1}, p_{Y|ut,0}).
    """
    side1 = _side_laws(target, 1)
    side0 = _side_laws(target, 0)
    return tuple((a, b) for a in side1 for b in side0)


def _require_iid(laws: OutputLaws) -> None:
    if laws.k != 1:
        raise ValidationError(f"operation needs per-slot (k=1) laws, got k={laws.k}")


def _require_full_support_laws(laws: OutputLaws) -> None:
    for up in UP_PAIRS:
        if not laws.laws[up].full_support:
            raise SupportError(f"law for (u,p)={up} lacks full support")


# ---------------------------------------------------------------------------
# Exact minimal error probabilities
# ---------------------------------------------------------------------------


def _constant_decision_errors(prior: Prior, target: TestTarget) -> tuple[float, float]:
    mass1 = sum(prior.prob(*up) for up in _side_laws(target, 1))
    return mass1, 1.0 - mass1  # error of always-0, error of always-1


def exact_min_error(
    laws: OutputLaws, prior: Prior, target: TestTarget, n_blocks: int
) -> float:
    """Exact Bayes error over ``n_blocks`` i.i.d. blocks, by full enumeration.

    alpha = sum over output sequences of min_h (grouped likelihood * prior).
    Refuses to enumerate more than :data:`DEFAULT_ENUM_CAP` sequences; use
    :func:`exact_min_error_iid_log` for long horizons with k = 1 laws.
    """
    if n_blocks < 1:
        raise ValidationError("n_blocks must be >= 1")
    m = len(laws.block_labels)
    if m**n_blocks > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{m}**{n_blocks} output sequences exceed the cap {DEFAULT_ENUM_CAP}; "
            "use exact_min_error_iid_log for long i.i.d. horizons"
        )
    lik = dict(zip(UP_PAIRS, _row_outer([laws.arrays()] * n_blocks)))
    g0 = sum(prior.prob(*up) * lik[up] for up in _side_laws(target, 0))
    g1 = sum(prior.prob(*up) * lik[up] for up in _side_laws(target, 1))
    alpha = float(np.minimum(g0, g1).sum())
    _check_error_bounds(alpha, prior, target)
    return alpha


def _check_error_bounds(alpha: float, prior: Prior, target: TestTarget) -> None:
    if not -1e-12 <= alpha <= 1.0 + 1e-12:
        raise ValidationError(f"computed error {alpha!r} outside [0, 1]")
    if alpha > min(_constant_decision_errors(prior, target)) + 1e-12:
        raise ValidationError(
            f"computed error {alpha!r} exceeds the best constant decision; "
            "this indicates an internal inconsistency"
        )


def exact_min_error_iid_log(
    block_laws: OutputLaws, prior: Prior, target: TestTarget, n: int
) -> float:
    """log(alpha) for the exact Bayes error over n i.i.d. slots (k = 1 laws).

    Enumerates type classes: sequences of the same type share the same
    probability under every law, so each class contributes its exact
    probability times the losing grouped mass.  The classes come in chunks
    of :func:`composition_lattice`; per chunk, the multinomial coefficients
    come from a table of log-factorials, the four class log-likelihoods from
    one matrix product, and the chunk's log-sum-exp joins a running one, so
    memory stays flat however many classes there are.  Refuses to enumerate
    more than :data:`DEFAULT_ENUM_CAP` type classes, and checks
    ``exp(log_alpha)`` as :func:`exact_min_error` checks its alpha.
    """
    _require_iid(block_laws)
    if n < 1:
        raise ValidationError("n must be >= 1")
    m = len(block_laws.block_labels)
    types = math.comb(n + m - 1, m - 1)
    if types > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{types} type classes (n={n}, {m} symbols) exceed the cap {DEFAULT_ENUM_CAP}"
        )
    laws = block_laws.arrays()  # (4, m) in UP_PAIRS order
    # a symbol a law cannot emit makes a class impossible when counted (the
    # mask below) and adds nothing when not (its log is stored as 0)
    zero_mass = laws == 0.0
    log_laws = np.zeros_like(laws)
    np.log(laws, out=log_laws, where=~zero_mass)
    log_prior = np.array([math.log(w) if w > 0.0 else -math.inf for w in prior.joint])
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)
    sides = [[UP_PAIRS.index(up) for up in _side_laws(target, h)] for h in (0, 1)]

    top, scaled = -math.inf, 0.0  # running log-sum-exp = top + log(scaled)
    for counts in composition_lattice(n, m):
        log_class = counts @ log_laws.T
        log_class[(counts > 0) @ zero_mass.T] = -math.inf
        joint = (log_fact[n] - log_fact[counts].sum(axis=1))[:, None] + log_class + log_prior
        loser = np.minimum(*(np.logaddexp(joint[:, a], joint[:, b]) for a, b in sides))
        chunk_top = float(loser.max())
        if chunk_top == -math.inf:
            continue
        if chunk_top > top:
            scaled *= math.exp(top - chunk_top)
            top = chunk_top
        scaled += float(np.exp(loser - top).sum())
    log_alpha = top + math.log(scaled) if scaled > 0.0 else -math.inf
    _check_error_bounds(math.exp(log_alpha), prior, target)
    return log_alpha


# ---------------------------------------------------------------------------
# Asymptotic error exponents
# ---------------------------------------------------------------------------


def _grouped_rate(laws: OutputLaws, target: TestTarget) -> tuple[float, tuple]:
    """The per-slot rate ``min C(a, b) / k`` over the four grouped pairs, and
    the first pair that attains the minimum."""
    _require_full_support_laws(laws)
    pairs = grouped_pairs(target)
    rates = [chernoff_from_probs(laws.laws[a].probs, laws.laws[b].probs)[0] for a, b in pairs]
    first = rates.index(min(rates))
    return rates[first] / laws.k, pairs[first]


def exponent_chernoff(block_laws: OutputLaws, target: TestTarget) -> ExponentReport:
    """Asymptotic per-slot exponent of k-block laws: the minimal cross-group
    Chernoff information divided by k, as it tensorizes over the slots."""
    value, pair = _grouped_rate(block_laws, target)
    return ExponentReport(value=value, argmin_pair=pair, method=ExponentMethod.CHERNOFF)


def exponent_composite(block_laws: OutputLaws, target: TestTarget) -> ExponentReport:
    """The same exponent via the eight composite-divergence evaluations.

    For the utility target this is the minimum over (u, p, pb) of the
    composite Chernoff divergence of law(u,p) toward law(1-u,pb) beside
    law(1-u,1-pb); the privacy target swaps the roles of u and p.
    """
    _require_iid(block_laws)
    _require_full_support_laws(block_laws)

    def key(u: int, p: int) -> tuple[int, int]:
        return (u, p) if target is TestTarget.UTILITY else (p, u)

    best = math.inf
    best_pair = None
    for own in (0, 1):
        for other in (0, 1):
            for pb in (0, 1):
                q1 = block_laws.laws[key(own, other)]
                q2 = block_laws.laws[key(1 - own, pb)]
                q3 = block_laws.laws[key(1 - own, 1 - pb)]
                value = composite_chernoff(q1, q2, q3)
                if value < best:
                    best = value
                    best_pair = (key(own, other), key(1 - own, pb))
    return ExponentReport(value=best, argmin_pair=best_pair, method=ExponentMethod.COMPOSITE)


def exponent_sanov(
    block_laws: OutputLaws, target: TestTarget, grid_step: float = 1e-3
) -> ExponentReport:
    """Brute-force exponent over a simplex grid of candidate types.

    Each grid pmf t is classified by the asymptotic type test; it then
    contributes the minimal divergence to a law on the *opposite* side of
    the decision.  Grid points on the decision boundary belong to both
    regions, so the contribution is max(m0, m1) where m_h is the divergence
    to the nearest side-h law.  Alphabets larger than 4, and grids of more
    than :data:`DEFAULT_ENUM_CAP` points, are refused.
    """
    _require_iid(block_laws)
    _require_full_support_laws(block_laws)
    m = len(block_laws.block_labels)
    steps = _grid_steps(m, grid_step)
    side0 = _side_laws(target, 0)
    side1 = _side_laws(target, 1)
    laws = np.array([block_laws.laws[up].probs for up in side0 + side1])

    best = math.inf
    best_pair = None
    for counts in composition_lattice(steps, m):
        d = kl_rows(counts / steps, laws)
        value = np.maximum(d[:, :2].min(axis=1), d[:, 2:].min(axis=1))
        i = int(np.argmin(value))  # first minimum: ties keep the earliest grid point
        if value[i] < best:
            best = float(value[i])
            best_pair = (side1[int(np.argmin(d[i, 2:]))], side0[int(np.argmin(d[i, :2]))])
    return ExponentReport(value=best, argmin_pair=best_pair, method=ExponentMethod.SANOV)


def exponent_lower_bound(
    laws: OutputLaws, prior: Prior, target: TestTarget, n_blocks: int | Sequence[int] = 1
) -> float | list[float]:
    """Lower bound on the finite-horizon error exponent.

    For k-block laws repeated ``n_blocks`` times (horizon n = k * n_blocks):

        (1/n) log(1/alpha) >= (1/k) min C(grouped pairs) - log(8 p_max) / n.

    Chernoff information tensorizes over independent blocks, so the rate
    term does not depend on ``n_blocks``.  The bound can be negative at
    small n, where it is vacuous but still valid.

    ``n_blocks`` is one block count, which gives one float, or a sequence of
    them, which gives a list with one bound per entry in the same order.
    The sequence form scores the rate once for all horizons; each of its
    bounds equals the single-horizon call bit for bit.
    """
    single = np.ndim(n_blocks) == 0
    horizons = [n_blocks] if single else list(n_blocks)
    if not horizons:
        raise ValidationError("n_blocks must name at least one horizon, got none")
    for n in horizons:
        if n < 1:
            raise ValidationError(f"n_blocks must be >= 1, got {n!r}")
    rate, _ = _grouped_rate(laws, target)
    log_8p = math.log(8.0 * prior.p_max)
    bounds = [rate - log_8p / (laws.k * n) for n in horizons]
    return bounds[0] if single else bounds
