"""Exact Bayesian composite hypothesis tests and their error exponents.

A composite test observes a sequence drawn from one of four laws indexed by
(u, p) and decides one coordinate of the pair: the *utility* test decides u,
grouping the laws by u with prior weights, and the *privacy* test decides p.

Three independent routes to the asymptotic error exponent are implemented
for i.i.d. (k = 1) laws:

* ``exponent_chernoff``: the minimum Chernoff information over the four
  cross-group law pairs,
* ``exponent_composite``: the minimum of eight composite Chernoff
  divergence evaluations,
* ``exponent_sanov``: a brute-force large-deviations computation over a
  simplex grid of empirical distributions, classifying each grid pmf with
  the asymptotic type-based test.

They must agree (the test suite holds them to 2e-3 with the grid at 1e-3).
Finite-horizon quantities are exact: ``exact_min_error`` enumerates output
sequences, ``exact_min_error_iid`` enumerates type classes in log space.
Type classes and Sanov grid points both come from the chunked numpy lattice
:func:`privtest.probkit.composition_lattice` and are scored a chunk at a
time (millions of type classes per second; the count grows like n^(m-1)
and is capped).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EnumerationCapError, SizeCapError, SupportError, ValidationError
from .model import UP_PAIRS, OutputLaws, Prior
from .probkit import (
    DEFAULT_ENUM_CAP,
    chernoff_from_probs,
    composite_chernoff,
    composition_lattice,
    kl_from_probs,
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
class TypeVector:
    """Occurrence counts per block symbol; the empirical type of a sequence."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValidationError("type counts must be >= 0")
        if sum(self.counts) != self.n:
            raise ValidationError(f"counts sum to {sum(self.counts)}, expected n={self.n}")

    def empirical(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)


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


def _law_arrays(laws: OutputLaws) -> dict[tuple[int, int], np.ndarray]:
    return {up: laws.laws[up].array() for up in UP_PAIRS}


def _require_iid(laws: OutputLaws) -> None:
    if laws.k != 1:
        raise ValidationError(f"operation needs per-slot (k=1) laws, got k={laws.k}")


def _require_full_support_laws(laws: OutputLaws) -> None:
    for up in UP_PAIRS:
        if not laws.laws[up].full_support:
            raise SupportError(f"law for (u,p)={up} lacks full support")


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------


def _grouped_log_likelihoods(
    log_lik: dict[tuple[int, int], float], prior: Prior, target: TestTarget
) -> tuple[float, float]:
    """Log of sum_{side} exp(log_lik) * prior for hypothesis values 0 and 1."""
    out = []
    for h in (0, 1):
        terms = []
        for up in _side_laws(target, h):
            w = prior.prob(*up)
            if w > 0.0 and log_lik[up] > -math.inf:
                terms.append(log_lik[up] + math.log(w))
        if not terms:
            out.append(-math.inf)
        else:
            m = max(terms)
            out.append(m + math.log(math.fsum(math.exp(t - m) for t in terms)))
    return out[0], out[1]


def map_decision(
    y_seq: Sequence, laws: OutputLaws, prior: Prior, target: TestTarget
) -> int:
    """Bayes-optimal decision from an observed symbol sequence.

    The sequence is consumed in blocks of ``laws.k``; its length must be a
    multiple of k.  Decides 0 when the grouped posterior weight of
    hypothesis 0 is at least that of hypothesis 1 (ties go to 0).
    """
    seq = tuple(y_seq)
    k = laws.k
    if len(seq) % k != 0:
        raise ValidationError(f"sequence length {len(seq)} is not a multiple of k={k}")
    log_lik = {up: 0.0 for up in UP_PAIRS}
    for i in range(0, len(seq), k):
        block = tuple(float(v) for v in seq[i : i + k])
        for up in UP_PAIRS:
            p = laws.laws[up].prob(block)  # raises AlphabetError on bad symbols
            log_lik[up] += math.log(p) if p > 0.0 else -math.inf
    g0, g1 = _grouped_log_likelihoods(log_lik, prior, target)
    return 0 if g0 >= g1 else 1


def map_decision_for_type(
    t: TypeVector, block_laws: OutputLaws, prior: Prior, target: TestTarget
) -> int:
    """The MAP decision shared by all sequences of type ``t`` (k = 1 laws)."""
    _require_iid(block_laws)
    arrays = _law_arrays(block_laws)
    log_lik = {}
    for up in UP_PAIRS:
        law = arrays[up]
        total = 0.0
        for count, prob in zip(t.counts, law):
            if count:
                total += count * math.log(prob) if prob > 0.0 else -math.inf
        log_lik[up] = total
    g0, g1 = _grouped_log_likelihoods(log_lik, prior, target)
    return 0 if g0 >= g1 else 1


def type_test_decision(t: TypeVector, block_laws: OutputLaws, target: TestTarget) -> int:
    """The prior-free asymptotic test based on the empirical type alone.

    Decides 1 exactly when min over side-0 laws of D(t_hat || law) strictly
    exceeds the side-1 minimum; ties go to 0.
    """
    _require_iid(block_laws)
    _require_full_support_laws(block_laws)
    emp = t.empirical()
    arrays = _law_arrays(block_laws)
    m0 = min(kl_from_probs(emp, arrays[up], allow_zeros=True) for up in _side_laws(target, 0))
    m1 = min(kl_from_probs(emp, arrays[up], allow_zeros=True) for up in _side_laws(target, 1))
    return 1 if m0 > m1 else 0


# ---------------------------------------------------------------------------
# Exact minimal error probabilities
# ---------------------------------------------------------------------------


def _constant_decision_errors(prior: Prior, target: TestTarget) -> tuple[float, float]:
    mass1 = sum(prior.prob(*up) for up in _side_laws(target, 1))
    return mass1, 1.0 - mass1  # error of always-0, error of always-1


def exact_min_error(
    laws: OutputLaws,
    prior: Prior,
    target: TestTarget,
    n_blocks: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    """Exact Bayes error over ``n_blocks`` i.i.d. blocks, by full enumeration.

    alpha = sum over output sequences of min_h (grouped likelihood * prior).
    Refuses to enumerate more than ``cap`` sequences; use
    :func:`exact_min_error_iid` for long horizons with k = 1 laws.
    """
    if n_blocks < 1:
        raise ValidationError("n_blocks must be >= 1")
    m = len(laws.block_labels)
    if m**n_blocks > cap:
        raise EnumerationCapError(
            f"{m}**{n_blocks} output sequences exceed the cap {cap}; "
            "use exact_min_error_iid for long i.i.d. horizons"
        )
    arrays = _law_arrays(laws)
    lik = {up: np.ones(1) for up in UP_PAIRS}
    for _ in range(n_blocks):
        lik = {up: np.kron(lik[up], arrays[up]) for up in UP_PAIRS}
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


def type_vectors(n: int, size: int) -> Iterator[TypeVector]:
    """All types of length-n sequences over ``size`` symbols, in lexicographic order."""
    for counts in composition_lattice(n, size):
        for row in counts.tolist():
            yield TypeVector(counts=tuple(row), n=n)


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
    more than :data:`DEFAULT_ENUM_CAP` type classes.
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
    return top + math.log(scaled) if scaled > 0.0 else -math.inf


def exact_min_error_iid(
    block_laws: OutputLaws, prior: Prior, target: TestTarget, n: int
) -> float:
    """Exact Bayes error over n i.i.d. slots via type-class enumeration."""
    log_alpha = exact_min_error_iid_log(block_laws, prior, target, n)
    alpha = math.exp(log_alpha) if log_alpha > -math.inf else 0.0
    _check_error_bounds(alpha, prior, target)
    return alpha


# ---------------------------------------------------------------------------
# Asymptotic error exponents
# ---------------------------------------------------------------------------


def exponent_chernoff(block_laws: OutputLaws, target: TestTarget) -> ExponentReport:
    """Asymptotic exponent as the minimal cross-group Chernoff information."""
    _require_iid(block_laws)
    _require_full_support_laws(block_laws)
    arrays = _law_arrays(block_laws)
    best = math.inf
    best_pair = None
    for a, b in grouped_pairs(target):
        value, _ = chernoff_from_probs(arrays[a], arrays[b])
        if value < best:
            best, best_pair = value, (a, b)
    return ExponentReport(value=best, argmin_pair=best_pair, method=ExponentMethod.CHERNOFF)


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
    if m > 4:
        raise SizeCapError(f"sanov grid refuses alphabets larger than 4 (got {m})")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step {grid_step} outside (0, 1]")
    steps = max(1, round(1.0 / grid_step))
    points = math.comb(steps + m - 1, m - 1)
    if points > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{points} grid points ({m} symbols, step {grid_step}) exceed the cap "
            f"{DEFAULT_ENUM_CAP}; use a coarser grid step"
        )
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
    laws: OutputLaws, prior: Prior, target: TestTarget, n_blocks: int = 1
) -> float:
    """Lower bound on the finite-horizon error exponent.

    For k-block laws repeated ``n_blocks`` times (horizon n = k * n_blocks):

        (1/n) log(1/alpha) >= (1/k) min C(grouped pairs) - log(8 p_max) / n.

    Chernoff information tensorizes over independent blocks, so the rate
    term does not depend on ``n_blocks``.  The bound can be negative at
    small n, where it is vacuous but still valid.
    """
    _require_full_support_laws(laws)
    if n_blocks < 1:
        raise ValidationError("n_blocks must be >= 1")
    arrays = _law_arrays(laws)
    rate = min(
        chernoff_from_probs(arrays[a], arrays[b])[0] for a, b in grouped_pairs(target)
    ) / laws.k
    n = laws.k * n_blocks
    return rate - math.log(8.0 * prior.p_max) / n
