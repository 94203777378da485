"""Exact Bayesian composite hypothesis tests and their error exponents.

A composite test observes a sequence drawn from one of four laws indexed by
(u, p) and decides one coordinate of the pair: the *utility* test decides u,
grouping the laws by u with prior weights, and the *privacy* test decides p.

Three independent routes to the asymptotic error exponent are implemented.
All three take k-block laws and report the per-slot value, divided by k;
the last two take the log of every mass, so they refuse zero masses:

* ``exponent_chernoff``: the minimum Chernoff information over the four
  cross-group law pairs, each on its common support (the rate of
  ``exponent_lower_bound``),
* ``exponent_composite``: the minimum of eight composite Chernoff
  divergence evaluations,
* ``exponent_sanov``: a brute-force large-deviations computation over a
  simplex grid of empirical distributions, classifying each grid pmf with
  the asymptotic type-based test.

They must agree (the test suite holds them to 2e-3 with the grid at 1e-3).
The grouped pairs of both targets are scored in one place: the stack
scorer :func:`_law_set_rates` gathers the six unordered cross-group pairs of
a ``(G, 4, m)`` stack of law sets into the batch kernel (:func:`_pair_rates`)
and, given a floor, screens them by one utility pair first.  The Chernoff
route is its one-law-set case; the policy search (``privtest.optimizer``),
the guarantee check and the ``verify`` suites score whole stacks with it,
so a kernel's exponent equals the optimizer's rate bit for bit.
Finite-horizon errors are exact.  Two private cores score a stack of law
sets, shape ``(L, 4, m)``, for several targets in one pass:
``_enumerated_errors`` enumerates output sequences at an ascending list of
block counts, growing the likelihoods one block at a time, and
``_type_class_errors`` enumerates type classes in log space at one horizon,
sharing each lattice chunk, the log-factorial table and the prior across
law sets and targets.  ``exact_min_error`` and ``exact_min_error_iid_log``
are their one-law-set, one-target case; the ``verify`` suites call the
cores.  Both routes take k-block laws, whose blocks are i.i.d.
super-symbols, with the horizon counted in blocks, and both check every
result against [0, 1] and the best constant decision.
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
    LATTICE_CHUNK,
    _grid_steps,
    chernoff_symbol_major,
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


def _side_rows(target: TestTarget) -> list[list[int]]:
    """The UP_PAIRS rows of the side-0 laws and of the side-1 laws."""
    return [[UP_PAIRS.index(up) for up in _side_laws(target, h)] for h in (0, 1)]


def _pair_layout() -> tuple[np.ndarray, np.ndarray, dict[TestTarget, np.ndarray]]:
    """The six unordered cross-group law pairs of both targets.

    Returns the UP_PAIRS rows of each pair's two sides and, per target, the
    positions of its four pairs in that list, in :func:`grouped_pairs`
    order.  Chernoff information is symmetric, so the two pairs the targets
    share are scored once.
    """
    pairs: list[tuple[int, int]] = []
    columns = {}
    for target in TestTarget:
        side0, side1 = _side_rows(target)
        own = [(min(a, b), max(a, b)) for a in side1 for b in side0]
        pairs += [pair for pair in own if pair not in pairs]
        columns[target] = np.array([pairs.index(pair) for pair in own])
    first, second = np.array(pairs).T
    return first, second, columns


_FIRST, _SECOND, _COLUMNS = _pair_layout()
_ALL = np.arange(len(_FIRST))

#: The pair a screened stack scores first, law (0, 1) against law (1, 0): a
#: utility pair that the privacy target shares.  On its own it rules out
#: most optimizer grid rows below a utility floor.  :data:`_REST` are the
#: other five (not by ``np.setdiff1d``, whose first call would import
#: ``numpy.ma``, 1.2 MiB, into every ``import privtest``).
_SCREEN = np.flatnonzero(
    (_FIRST == UP_PAIRS.index((0, 1))) & (_SECOND == UP_PAIRS.index((1, 0)))
)
_REST = np.flatnonzero(_ALL != _SCREEN[0])

#: The UP_PAIRS rows of the two laws that :data:`_SCREEN` compares.
_SCREEN_LAWS = np.concatenate([_FIRST[_SCREEN], _SECOND[_SCREEN]])

#: Probabilities per stacked array in one Chernoff kernel call; larger
#: batches of law sets are scored in chunks of this size, so memory stays flat.
_CHUNK_ELEMENTS = 8192


def _screen_bound(
    base: np.ndarray, law_map: np.ndarray, params: np.ndarray, k: int, error: float
) -> np.ndarray:
    """Upper bounds on the :data:`_SCREEN` pair's rate / k of the law sets
    ``base + sum_j params[g, j] law_map[j]``, ``(G,)``: ``-2 log(B - m sqrt(2
    error)) / k``, B the pair's Bhattacharyya coefficient sum_y sqrt(p_y q_y)
    (Kailath, 1967), or +inf when B is within the margin of 0.  L(mu) = log
    sum_y p^mu q^(1-mu) is convex and at most 0 on [0, 1], so C = -L(mu*) <= -2
    L(1/2); as |sqrt a - sqrt b| <= sqrt |a - b|, the margin covers masses
    within ``error`` of the scored ones.
    """
    base = base[_SCREEN_LAWS, :, None]
    moves = law_map[:, _SCREEN_LAWS, :, None]
    margin = base.shape[1] * math.sqrt(2.0 * max(error, np.finfo(float).eps))
    bound = np.empty(len(params))
    size = max(1, _CHUNK_ELEMENTS // (2 * base.shape[1]))  # both laws of a chunk
    for start in range(0, len(params), size):
        block = params[start : start + size]
        laws = np.repeat(base, len(block), axis=2)
        for j, move in enumerate(moves):
            laws += move * block[:, j]
        products = np.maximum(laws[0] * laws[1], 0.0)
        coefficient = np.sqrt(products, out=products).sum(axis=0) - margin
        with np.errstate(divide="ignore"):
            bound[start : start + size] = -2.0 * np.log(np.maximum(coefficient, 0.0)) / k
    return bound


def _pair_rates(
    by_symbol: np.ndarray, pairs: np.ndarray, tilts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff informations of the given unordered pairs of every law set
    and their tilts mu*, two ``(G, len(pairs))`` arrays; ``by_symbol`` is
    the ``(m, G, 4)`` law view and ``tilts``, if given, Newton's starting
    tilts in the same layout.

    Each C is summed over its pair's common support (+inf for disjoint
    supports).  The pairs of a chunk of law sets are gathered straight into
    two symbol-major ``(m, len(pairs) g)`` arrays, one index per side, and
    scored by one :func:`~privtest.probkit.chernoff_symbol_major` call.  A
    one-pair gather comes out F-ordered and a wider one C-ordered; the
    kernel's bits do not depend on that, so a pair gets the same rate
    whichever pairs and law sets it is scored with.
    """
    m, G, _ = by_symbol.shape
    first, second = _FIRST[pairs], _SECOND[pairs]
    rates = np.empty((G, len(pairs)))
    mus = np.empty((G, len(pairs)))
    size = max(1, _CHUNK_ELEMENTS // (len(pairs) * m))
    for start in range(0, G, size):
        rows = slice(start, start + size)
        chunk = by_symbol[:, rows]
        rate, mu = chernoff_symbol_major(
            chunk[:, :, first].reshape(m, -1),
            chunk[:, :, second].reshape(m, -1),
            None if tilts is None else tilts[rows].ravel(),
        )
        rates[rows] = rate.reshape(-1, len(pairs))
        mus[rows] = mu.reshape(-1, len(pairs))
    return rates, mus


def _law_set_rates(
    laws: np.ndarray, k: int, floor: float = 0.0, tilts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Utility and privacy rates of every law set of a ``(G, 4, m)`` stack of
    k-block laws (rows in UP_PAIRS order), two ``(G,)`` arrays, then the six
    pair rates and tilts mu* that :func:`_pair_rates` scored, two ``(G, 6)``
    arrays, or None for both on a screened stack.

    This is the one scorer of grouped-pair rates.  Each target's rate is the
    minimum over its four pairs (:data:`_COLUMNS`), divided by k; a pair
    with disjoint supports is perfectly distinguishable (+inf), so a rate is
    +inf only when all four are.  Without a ``floor`` above 0 all six pairs
    are scored in one :func:`_pair_rates` call, Newton starting at ``tilts``
    (``(G, 6)``) if given.  With one, the :data:`_SCREEN` pair is scored
    first and the other five only on the law sets whose screening rate / k
    is at least ``floor``; every other law set keeps that rate as its
    utility, which is below the floor, and gets privacy +inf.  The kernel
    scores each pair by itself, so a law set scored in full gets the same
    bits either way, and in any stack.
    """
    by_symbol = laws.transpose(2, 0, 1)  # (m, G, 4) view
    if floor > 0.0:
        screen = _pair_rates(by_symbol, _SCREEN)[0][:, 0]
        utility = screen / k
        privacy = np.full(len(screen), np.inf)
        kept = np.flatnonzero(utility >= floor)
        rates = np.empty((len(kept), len(_ALL)))
        rates[:, _SCREEN[0]] = screen[kept]
        rates[:, _REST] = _pair_rates(by_symbol[:, kept], _REST)[0]
        utility[kept], privacy[kept] = (rates[:, _COLUMNS[t]].min(axis=1) / k for t in TestTarget)
        return utility, privacy, None, None
    rates, mus = _pair_rates(by_symbol, _ALL, tilts)
    utility, privacy = (rates[:, _COLUMNS[t]].min(axis=1) / k for t in TestTarget)
    return utility, privacy, rates, mus


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


def _check_error_bounds(alphas: np.ndarray, prior: Prior, targets: Sequence[TestTarget]) -> None:
    """Check each alpha ``alphas[l, t, ...]`` of ``targets[t]`` against [0, 1]
    and the best constant decision; the first one that fails raises."""
    for t, target in enumerate(targets):
        column = alphas[:, t].ravel()
        outside = ~((column >= -1e-12) & (column <= 1.0 + 1e-12))  # NaN is outside too
        if outside.any():
            raise ValidationError(f"computed error {float(column[outside][0])!r} outside [0, 1]")
        above = column > min(_constant_decision_errors(prior, target)) + 1e-12
        if above.any():
            raise ValidationError(
                f"computed error {float(column[above][0])!r} exceeds the best constant "
                "decision; this indicates an internal inconsistency"
            )


def _slices(stack: np.ndarray, items: int):
    """Consecutive slices of a law-set stack that hold at most
    :data:`LATTICE_CHUNK` sequences or type classes (``items`` per law set)
    and at least one law set, so a core's working set is that of one lattice
    chunk or one law set, however many law sets are stacked."""
    step = max(1, LATTICE_CHUNK // items)
    for lo in range(0, len(stack), step):
        yield slice(lo, lo + step)


def _enumerated_errors(
    stack: np.ndarray, prior: Prior, targets: Sequence[TestTarget], horizons: Sequence[int]
) -> np.ndarray:
    """``alpha[l, t, h]``: the exact Bayes error of law set ``l`` of a
    ``(L, 4, m)`` stack (rows in UP_PAIRS order) for ``targets[t]`` over
    ``horizons[h]`` i.i.d. blocks, by enumerating the output sequences.

    alpha = sum over sequences of min_h (grouped likelihood * prior).  The
    horizons are ascending; the likelihoods grow one block at a time by the
    left-folding :func:`privtest.model._row_outer`, so each horizon's equal
    ``_row_outer([laws] * n)`` bit for bit and every law set's alphas equal
    its own one-law-set call.  Horizons of more than :data:`DEFAULT_ENUM_CAP`
    sequences are refused before enumerating, and the stack is scored in
    slices (:func:`_slices`).
    """
    if horizons[0] < 1:
        raise ValidationError("n_blocks must be >= 1")
    m, n_max = stack.shape[-1], horizons[-1]
    if m**n_max > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{m}**{n_max} output sequences ({n_max} blocks on {m} labels) exceed the cap "
            f"{DEFAULT_ENUM_CAP}; use exact_min_error_iid_log for long i.i.d. horizons"
        )
    weighted = [
        [[(prior.joint[i], i) for i in side] for side in _side_rows(target)] for target in targets
    ]
    column = {n: h for h, n in enumerate(horizons)}
    alphas = np.empty((len(stack), len(targets), len(horizons)))
    for part in _slices(stack, m**n_max):
        laws = lik = stack[part]
        for n in range(1, n_max + 1):
            if n > 1:
                lik = _row_outer([lik, laws])
            if n in column:
                for t, sides in enumerate(weighted):
                    g0, g1 = (sum(w * lik[:, i] for w, i in side) for side in sides)
                    alphas[part, t, column[n]] = np.minimum(g0, g1).sum(axis=-1)
    _check_error_bounds(alphas, prior, targets)
    return alphas


def _type_class_errors(
    stack: np.ndarray, prior: Prior, targets: Sequence[TestTarget], n: int
) -> np.ndarray:
    """``log alpha[l, t]``: the log exact Bayes error of law set ``l`` of a
    ``(L, 4, m)`` stack for ``targets[t]`` over ``n`` i.i.d. blocks, by
    enumerating type classes.

    Sequences of the same type share the same probability under every law,
    so each class contributes its exact probability times the losing grouped
    mass.  The classes come in chunks of :func:`composition_lattice`.  Each
    chunk, its multinomial coefficients (from one table of log-factorials)
    and the prior are shared by every law set and target; the four class
    log-likelihoods of every law set come from one stacked matrix product,
    and each (law set, target) keeps a running log-sum-exp, so memory stays
    flat however many classes there are.  Every entry equals its own
    one-law-set, one-target call bit for bit.  More than
    :data:`DEFAULT_ENUM_CAP` classes are refused before enumerating, and each
    ``exp(log_alpha)`` is checked as :func:`_enumerated_errors` checks alpha.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    m = stack.shape[-1]
    types = math.comb(n + m - 1, m - 1)
    if types > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"{types} type classes ({n} blocks on {m} labels) exceed the cap {DEFAULT_ENUM_CAP}"
        )
    # a symbol a law cannot emit makes a class impossible when counted (the
    # mask below) and adds nothing when not (its log is stored as 0)
    zero_mass = stack == 0.0
    log_laws = np.zeros_like(stack)
    np.log(stack, out=log_laws, where=~zero_mass)
    log_prior = np.array([math.log(w) if w > 0.0 else -math.inf for w in prior.joint])
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)
    sides = [_side_rows(target) for target in targets]

    # running log-sum-exp of each (law set, target) = top + log(scaled)
    top = np.full((len(stack), len(targets)), -math.inf)
    scaled = np.zeros_like(top)
    for part in _slices(stack, types):
        tops, sums = top[part], scaled[part]  # views
        columns, zero_columns = log_laws[part].swapaxes(1, 2), zero_mass[part].swapaxes(1, 2)
        for counts in composition_lattice(n, m):
            log_class = counts @ columns  # (law sets, classes, 4)
            log_class[(counts > 0) @ zero_columns] = -math.inf
            joint = (log_fact[n] - log_fact[counts].sum(axis=1))[:, None] + log_class + log_prior
            loser = np.empty(tops.shape + (len(counts),))
            for t, ((a0, b0), (a1, b1)) in enumerate(sides):
                np.minimum(
                    np.logaddexp(joint[..., a0], joint[..., b0]),
                    np.logaddexp(joint[..., a1], joint[..., b1]),
                    out=loser[:, t],
                )
            chunk_top = loser.max(axis=-1)
            for i in zip(*np.nonzero(chunk_top > tops)):
                sums[i] *= math.exp(tops[i] - chunk_top[i])
                tops[i] = chunk_top[i]
            # a pair with no possible class so far adds exp(-inf - 0) = 0
            sums += np.exp(loser - np.where(tops > -math.inf, tops, 0.0)[..., None]).sum(axis=-1)
    log_alpha = np.full_like(top, -math.inf)
    alphas = np.zeros_like(top)
    for i in zip(*np.nonzero(scaled > 0.0)):
        log_alpha[i] = float(top[i]) + math.log(scaled[i])
        alphas[i] = math.exp(log_alpha[i])
    _check_error_bounds(alphas, prior, targets)
    return log_alpha


def exact_min_error(
    laws: OutputLaws, prior: Prior, target: TestTarget, n_blocks: int
) -> float:
    """Exact Bayes error over ``n_blocks`` i.i.d. blocks, by full enumeration.

    alpha = sum over output sequences of min_h (grouped likelihood * prior),
    checked against [0, 1] and the best constant decision.  Refuses to
    enumerate more than :data:`DEFAULT_ENUM_CAP` sequences; use
    :func:`exact_min_error_iid_log` for long horizons.
    """
    return float(_enumerated_errors(laws.arrays()[None], prior, (target,), (n_blocks,))[0, 0, 0])


def exact_min_error_iid_log(
    block_laws: OutputLaws, prior: Prior, target: TestTarget, n: int
) -> float:
    """log(alpha) for the exact Bayes error over ``n`` i.i.d. blocks, by type classes.

    The laws may be k-block laws: their blocks are i.i.d. super-symbols, so
    ``n`` counts blocks (n * k slots) and the classes are types over the
    |Y|^k block labels.  Refuses to enumerate more than :data:`DEFAULT_ENUM_CAP`
    type classes, and checks ``exp(log_alpha)`` as :func:`exact_min_error`
    checks its alpha; :func:`_type_class_errors` has the details.
    """
    return float(_type_class_errors(block_laws.arrays()[None], prior, (target,), n)[0, 0])


# ---------------------------------------------------------------------------
# Asymptotic error exponents
# ---------------------------------------------------------------------------


def exponent_chernoff(block_laws: OutputLaws, target: TestTarget) -> ExponentReport:
    """Asymptotic per-slot exponent of k-block laws: the minimal cross-group
    Chernoff information divided by k, as it tensorizes over the slots.

    This is the one-law-set case of :func:`_law_set_rates`, which scores
    each pair over its common support; ``argmin_pair`` is the first of the
    target's four pairs that attains the minimum.
    """
    utility, privacy, rates, _ = _law_set_rates(block_laws.arrays()[None], block_laws.k)
    first = int(np.argmin(rates[0, _COLUMNS[target]]))
    return ExponentReport(
        value=float((utility if target is TestTarget.UTILITY else privacy)[0]),
        argmin_pair=grouped_pairs(target)[first],
        method=ExponentMethod.CHERNOFF,
    )


def exponent_composite(block_laws: OutputLaws, target: TestTarget) -> ExponentReport:
    """The same exponent via the eight composite-divergence evaluations.

    For the utility target this is the minimum over (u, p, pb) of the
    composite Chernoff divergence of law(u,p) toward law(1-u,pb) beside
    law(1-u,1-pb); the privacy target swaps the roles of u and p.  The
    minimum is divided by k, as in :func:`exponent_chernoff`.  Laws with
    zero masses are refused.  The sides come from :func:`_side_laws`: each
    law of side h toward the other side's two laws, in order and reversed.
    """
    _require_full_support_laws(block_laws)
    laws = block_laws.laws
    best = math.inf
    best_pair = None
    for h in (0, 1):
        other = _side_laws(target, 1 - h)
        for a in _side_laws(target, h):
            for b, c in (other, other[::-1]):
                value = composite_chernoff(laws[a], laws[b], laws[c])
                if value < best:
                    best = value
                    best_pair = (a, b)
    return ExponentReport(
        value=best / block_laws.k, argmin_pair=best_pair, method=ExponentMethod.COMPOSITE
    )


def exponent_sanov(
    block_laws: OutputLaws, target: TestTarget, grid_step: float = 1e-3
) -> ExponentReport:
    """Brute-force exponent over a simplex grid of candidate types.

    Each grid pmf t is classified by the asymptotic type test; it then
    contributes the minimal divergence to a law on the *opposite* side of
    the decision.  Grid points on the decision boundary belong to both
    regions, so the contribution is max(m0, m1) where m_h is the divergence
    to the nearest side-h law.  For k-block laws the grid runs over types
    of the |Y|^k block labels and the minimum is divided by k.  Alphabets
    (of block labels) larger than 4, grids of more than
    :data:`DEFAULT_ENUM_CAP` points and laws with zero masses are refused.
    """
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
    return ExponentReport(
        value=best / block_laws.k, argmin_pair=best_pair, method=ExponentMethod.SANOV
    )


def _lower_bound(rate: float, prior: Prior, slots: int) -> float:
    """The finite-horizon exponent bound ``rate - log(8 p_max) / n`` at
    ``n = slots`` of a per-slot Chernoff rate."""
    return rate - math.log(8.0 * prior.p_max) / slots


def exponent_lower_bound(
    laws: OutputLaws, prior: Prior, target: TestTarget, n_blocks: int = 1
) -> float:
    """Lower bound on the finite-horizon error exponent.

    For k-block laws repeated ``n_blocks`` times (horizon n = k * n_blocks):

        (1/n) log(1/alpha) >= (1/k) min C(grouped pairs) - log(8 p_max) / n.

    Chernoff information tensorizes over independent blocks, so the rate
    term does not depend on ``n_blocks``.  The bound can be negative at
    small n, where it is vacuous but still valid.  Each C is taken over its
    pair's common support, so zero masses are accepted: off that support
    min(a, b) = 0, and the Chernoff step ``min(a, b) <= a^mu b^(1-mu)``
    needs no term there.
    """
    if n_blocks < 1:
        raise ValidationError(f"n_blocks must be >= 1, got {n_blocks!r}")
    return _lower_bound(exponent_chernoff(laws, target).value, prior, laws.k * n_blocks)
