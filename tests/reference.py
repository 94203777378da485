"""Scalar references the tests hold the library to.

* Decision rules for the numpy paths: the Bayes-optimal (MAP) rule on one
  observed sequence and on one type (a tuple of symbol counts), and the
  prior-free asymptotic test on the empirical type.
* A golden-section search and the Chernoff information found with it, the
  independent oracle of both Newton solvers (the scalar
  ``chernoff_from_probs`` and the batch kernel ``chernoff_symbol_major``).
  It reads values of the objective only, never its slopes.
* The pattern search as it was before its step ladder: each round probes
  one step per start and halves it on failure, the path the optimizer's
  laddered search must follow move for move.
"""

import math

import numpy as np

from privtest.bayes import _law_set_rates, _side_laws
from privtest.errors import ValidationError
from privtest.model import UP_PAIRS
from privtest.optimizer import (
    _TIE_TOL,
    _best,
    _FamilyEval,
    _probe_laws,
    _probe_params,
    _probe_sources,
    _probes,
    _tied,
)
from privtest.probkit import kl_from_probs

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Spacing of the golden-section interior points at which the search stops.
_GOLDEN_TOL = 1e-10

#: Final bracket width per unit of interior-point spacing, 1 / (2 phi' - 1).
_BRACKET_PER_TOL = 1.0 / (2.0 * _INVPHI - 1.0)


def _log(p):
    return math.log(p) if p > 0.0 else -math.inf


def _decide(log_lik, prior, target):
    """0 when hypothesis 0's grouped posterior mass is at least hypothesis 1's."""
    g0, g1 = (
        np.logaddexp(*(log_lik[up] + _log(prior.prob(*up)) for up in _side_laws(target, h)))
        for h in (0, 1)
    )
    return 0 if g0 >= g1 else 1


def map_decision(y_seq, laws, prior, target):
    """The MAP decision from a symbol sequence, read in blocks of ``laws.k``."""
    seq = tuple(float(v) for v in y_seq)
    if len(seq) % laws.k:
        raise ValidationError(f"sequence length {len(seq)} is not a multiple of k={laws.k}")
    blocks = [seq[i : i + laws.k] for i in range(0, len(seq), laws.k)]
    # Pmf.prob raises AlphabetError on a block outside the alphabet
    log_lik = {up: math.fsum(_log(laws.laws[up].prob(b)) for b in blocks) for up in UP_PAIRS}
    return _decide(log_lik, prior, target)


def map_decision_for_type(counts, laws, prior, target):
    """The MAP decision shared by all sequences of type ``counts`` (k = 1 laws)."""
    log_lik = {
        up: math.fsum(c * _log(p) for c, p in zip(counts, laws.laws[up].probs) if c)
        for up in UP_PAIRS
    }
    return _decide(log_lik, prior, target)


def type_test_decision(counts, laws, target):
    """1 exactly when the type is strictly closer in KL to the nearest side-1
    law than to the nearest side-0 law; ties go to 0."""
    emp = [c / sum(counts) for c in counts]
    m0, m1 = (
        min(kl_from_probs(emp, laws.laws[up].probs, allow_zeros=True) for up in _side_laws(target, h))
        for h in (0, 1)
    )
    return 1 if m0 > m1 else 0


def golden_section_max(f, lo, hi):
    """Maximize a concave function on [lo, hi] by golden-section search.

    Returns ``(x, f(x))`` where x is the midpoint of the final bracket.  The
    search stops once its two interior points are at most ``_GOLDEN_TOL``
    apart, so the bracket is then at most ``_BRACKET_PER_TOL * _GOLDEN_TOL``
    wide.
    """
    a, b = float(lo), float(hi)
    if b < a:
        raise ValidationError(f"empty search interval [{a}, {b}]")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (d - c) > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_chernoff(p, q):
    """``(C(p, q), mu*)`` by golden-section search over the common support.

    Disjoint supports give ``(inf, 0.5)``.  The midpoint of a final bracket
    that touches 0 or 1 misses an optimum at that endpoint by the slope
    there times half the bracket width, so the endpoint is evaluated too
    and kept when it is better.  Negative rounding is clamped to 0.
    """
    pairs = [(a, b) for a, b in zip(map(float, p), map(float, q)) if a > 0.0 and b > 0.0]
    if not pairs:
        return math.inf, 0.5
    l1 = [math.log(a) for a, _ in pairs]
    l2 = [math.log(b) for _, b in pairs]

    def objective(mu):
        acc = 0.0
        for a, b in zip(l1, l2):
            acc += math.exp(mu * a + (1.0 - mu) * b)
        return -math.log(acc) if acc > 0.0 else math.inf

    mu, value = golden_section_max(objective, 0.0, 1.0)
    for end in (0.0, 1.0):
        if abs(mu - end) <= _BRACKET_PER_TOL * _GOLDEN_TOL:
            end_value = objective(end)
            if end_value > value:
                mu, value = end, end_value
    return max(value, 0.0), mu


def one_level_refine(space, threshold, starts, step, tol, directions, max_moves=2000):
    """The lockstep pattern search probing one step per start and round:
    a start moves to its best winning probe by ``_best``, or halves its
    step when none wins, and retires below ``tol`` or at ``max_moves``."""
    columns, signs = directions
    if not (columns[:, 1:] >= 0).any():
        columns, signs = columns[:, :1], signs[:, :1]
    sources = _probe_sources(space, columns)
    x = np.array(starts, dtype=float)
    laws = space.batch_laws(x)
    utility, privacy, _, tilts = _law_set_rates(laws, space.k)
    steps = np.full(len(x), float(step))
    moves = np.zeros(len(x), dtype=int)
    active = np.arange(len(x) if len(columns) else 0)
    while (active := active[(steps[active] >= tol) & (moves[active] < max_moves)]).size:
        value, move, kept = _probes(x[active], steps[active], columns, signs, sources)
        a, d = np.nonzero(kept)
        owner = active[a]
        probe_laws = _probe_laws(space, laws[owner], columns[d], move[a, d])
        probe_utility, probe_privacy, _, probe_tilts = _law_set_rates(
            probe_laws, space.k, tilts=tilts[owner]
        )
        wins = np.where(
            utility[owner] >= threshold,
            (probe_utility >= threshold) & (probe_privacy < privacy[owner] - _TIE_TOL),
            (probe_utility >= threshold)
            | ((threshold - probe_utility) < (threshold - utility[owner]) - _TIE_TOL),
        )
        won = np.flatnonzero(wins)
        bounds = np.searchsorted(a[won], np.arange(len(active) + 1))
        steps[active[bounds[1:] == bounds[:-1]]] *= 0.5
        movers = np.flatnonzero(bounds[1:] > bounds[:-1])
        for pos in movers:
            i = active[pos]
            mine = won[bounds[pos] : bounds[pos + 1]]
            mine = mine[_tied(probe_utility[mine], probe_privacy[mine], threshold)]
            params = _probe_params(x[i], columns[d[mine]], value[a[mine], d[mine]])
            pick = _best(_FamilyEval(params, probe_utility[mine], probe_privacy[mine]), threshold)
            choice = mine[pick]
            x[i] = params[pick]
            utility[i], privacy[i] = probe_utility[choice], probe_privacy[choice]
            tilts[i] = probe_tilts[choice]
        if movers.size:
            moved = active[movers]
            moves[moved] += 1
            laws[moved] = space.batch_laws(x[moved])
    return _FamilyEval(x, utility, privacy)
