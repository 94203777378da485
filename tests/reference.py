"""Scalar decision rules the tests hold the numpy paths to: the Bayes-optimal
(MAP) rule on one observed sequence and on one type (a tuple of symbol
counts), and the prior-free asymptotic test on the empirical type."""

import math

import numpy as np

from privtest.bayes import _side_laws
from privtest.errors import ValidationError
from privtest.model import UP_PAIRS
from privtest.probkit import kl_from_probs


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
