"""Property tests of the chunked composition lattice and the numpy paths built on it.

Each vectorized path is compared with a scalar reference kept here: the
recursive composition generator the lattice replaced, full sequence
enumeration for type-class errors, and a loop of ``kl_from_probs`` calls over
the simplex grid for the Sanov exponent and the primal oracle.  The numpy
paths sum in another order and use numpy's log, so values agree to 1e-12,
not bit for bit.  The stacked exact-error cores are held to their own
one-law-set calls bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privtest import (
    Pmf,
    Prior,
    TestTarget,
    composite_chernoff_primal_oracle,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_sanov,
)
from privtest.bayes import _enumerated_errors, _side_laws, _type_class_errors
from privtest.model import UP_PAIRS, OutputLaws
from privtest.probkit import DEFAULT_ENUM_CAP, LATTICE_CHUNK, composition_lattice, kl_from_probs

PROPERTY = settings(max_examples=40)


def compositions(total, parts):
    """The recursive generator the lattice replaced: lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def weights(size, low):
    return st.lists(st.integers(low, 9), min_size=size, max_size=size).filter(
        lambda w: sum(w) > 0
    )


@st.composite
def iid_laws(draw, sizes=(2, 4), zeros=True):
    """k = 1 output laws on 2..4 symbols, zero masses allowed if ``zeros``."""
    m = draw(st.integers(*sizes))
    labels = tuple((float(i),) for i in range(m))
    laws = {up: Pmf.from_weights(labels, draw(weights(m, 0 if zeros else 1))) for up in UP_PAIRS}
    return OutputLaws(k=1, laws=laws)


priors = weights(4, 0).map(lambda w: Prior(tuple(x / sum(w) for x in w)))


def best_constant_error(prior, target):
    mass1 = math.fsum(prior.prob(*up) for up in _side_laws(target, 1))
    return min(mass1, 1.0 - mass1)


# ---------------------------------------------------------------------------
# The lattice itself
# ---------------------------------------------------------------------------


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 12))
def test_lattice_matches_recursive_generator(parts, n):
    chunks = list(composition_lattice(n, parts))
    assert all(c.dtype == np.int64 and c.shape[1] == parts for c in chunks)
    assert [tuple(row) for c in chunks for row in c.tolist()] == list(compositions(n, parts))


@pytest.mark.parametrize("n, parts", [(127, 3), (40, 4), (14, 6)])
def test_lattice_across_chunk_boundaries(n, parts):
    # C(129, 2) = 8,256, C(43, 3) = 12,341 and C(19, 5) = 11,628 rows: two chunks each
    chunks = list(composition_lattice(n, parts))
    assert [len(c) for c in chunks[:-1]] == [LATTICE_CHUNK] * (len(chunks) - 1)
    assert len(chunks) == 2
    assert [tuple(row) for c in chunks for row in c.tolist()] == list(compositions(n, parts))
    assert sum(len(c) for c in chunks) == math.comb(n + parts - 1, parts - 1)


# ---------------------------------------------------------------------------
# Exact type-class errors
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(iid_laws(), priors, st.sampled_from(list(TestTarget)), st.integers(1, 6))
def test_type_classes_equal_sequence_enumeration(laws, prior, target, n):
    types = math.exp(exact_min_error_iid_log(laws, prior, target, n))
    assert types == pytest.approx(exact_min_error(laws, prior, target, n), abs=1e-12)
    assert 0.0 <= types <= best_constant_error(prior, target) + 1e-12


def reference_log_alpha(laws, prior, target, n):
    """The scalar type-class loop the numpy path replaced."""
    m = len(laws.block_labels)
    per_class = []
    for counts in compositions(n, m):
        log_coef = math.lgamma(n + 1) - math.fsum(math.lgamma(c + 1) for c in counts)
        grouped = []
        for h in (0, 1):
            terms = []
            for up in _side_laws(target, h):
                law, weight = laws.laws[up].probs, prior.prob(*up)
                if weight > 0.0 and all(p > 0.0 for c, p in zip(counts, law) if c):
                    terms.append(
                        log_coef + math.log(weight)
                        + math.fsum(c * math.log(p) for c, p in zip(counts, law) if c)
                    )
            top = max(terms, default=-math.inf)
            grouped.append(
                top + math.log(math.fsum(math.exp(t - top) for t in terms)) if terms else top
            )
        if min(grouped) > -math.inf:
            per_class.append(min(grouped))
    if not per_class:
        return -math.inf
    top = max(per_class)
    return top + math.log(math.fsum(math.exp(x - top) for x in per_class))


# horizons whose type classes fill more than one lattice chunk
MULTI_CHUNK_N = {2: 9000, 3: 130, 4: 40}


@settings(max_examples=10)
@given(iid_laws(), priors, st.sampled_from(list(TestTarget)))
def test_streaming_sum_across_chunks_matches_scalar_loop(laws, prior, target):
    n = MULTI_CHUNK_N[len(laws.block_labels)]
    expected = reference_log_alpha(laws, prior, target, n)
    log_alpha = exact_min_error_iid_log(laws, prior, target, n)
    if expected == -math.inf:
        assert log_alpha == -math.inf
    else:
        assert log_alpha == pytest.approx(expected, rel=1e-12)


@PROPERTY
@given(iid_laws(), priors, st.sampled_from(list(TestTarget)), st.integers(1, 60))
def test_type_class_error_below_best_constant_decision(laws, prior, target, n):
    log_alpha = exact_min_error_iid_log(laws, prior, target, n)
    assert type(log_alpha) is float  # not a numpy scalar, whose repr the CLI would print
    alpha = math.exp(log_alpha)
    assert 0.0 <= alpha <= best_constant_error(prior, target) + 1e-12


@st.composite
def law_stacks(draw):
    """One to five law sets on a shared alphabet of 2..4 symbols, zeros allowed."""
    m = draw(st.integers(2, 4))
    return [draw(iid_laws(sizes=(m, m))) for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=40)
@given(
    law_stacks(),
    priors,
    st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True).map(sorted),
    st.sampled_from([1, 2, 5, 17, 60, None]),  # None: a horizon of two lattice chunks
)
def test_stacked_cores_equal_one_law_set_calls_bit_for_bit(law_sets, prior, horizons, n):
    stack = np.stack([laws.arrays() for laws in law_sets])
    n = n or MULTI_CHUNK_N[stack.shape[-1]]
    targets = tuple(TestTarget)
    alphas = _enumerated_errors(stack, prior, targets, horizons)
    log_alphas = _type_class_errors(stack, prior, targets, n)
    for laws, alpha, log_alpha in zip(law_sets, alphas, log_alphas):
        for t, target in enumerate(targets):
            single = [exact_min_error(laws, prior, target, h).hex() for h in horizons]
            assert [a.hex() for a in alpha[t].tolist()] == single
            single_log = exact_min_error_iid_log(laws, prior, target, n)
            assert float(log_alpha[t]).hex() == single_log.hex()


def test_stack_above_the_cap_is_scored_in_slices():
    # 15 law sets of 2**20 sequences each: 15.7 M sequences in all
    assert 15 * 2**20 > DEFAULT_ENUM_CAP
    theta = np.random.default_rng(3).uniform(0.2, 0.8, size=(15, 4, 1))
    stack = np.concatenate([theta, 1.0 - theta], axis=-1)

    def peak(part):
        tracemalloc.start()
        try:
            _enumerated_errors(part, Prior.uniform(), (TestTarget.UTILITY,), (20,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(stack) <= 1.5 * peak(stack[:1])


# ---------------------------------------------------------------------------
# Grid oracles against a scalar kl_from_probs loop
# ---------------------------------------------------------------------------

STEP = 1e-2


def reference_grid(m):
    steps = round(1.0 / STEP)
    return [tuple(c / steps for c in counts) for counts in compositions(steps, m)]


def four_symbol_laws():
    """One 4-symbol case (its grid has 176,851 points), with two equal laws."""
    labels = tuple((float(i),) for i in range(4))
    probs = [(1, 2, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4), (2, 2, 1, 5)]
    return OutputLaws(
        k=1, laws={up: Pmf.from_weights(labels, w) for up, w in zip(UP_PAIRS, probs)}
    )


@settings(max_examples=12)
@given(iid_laws(sizes=(2, 3), zeros=False), st.sampled_from(list(TestTarget)))
@example(four_symbol_laws(), TestTarget.PRIVACY)
def test_sanov_matches_scalar_loop(laws, target):
    side0, side1 = _side_laws(target, 0), _side_laws(target, 1)
    arrays = {up: laws.laws[up].probs for up in UP_PAIRS}
    scored = []
    for t in reference_grid(len(laws.block_labels)):
        d0 = {up: kl_from_probs(t, arrays[up], allow_zeros=True) for up in side0}
        d1 = {up: kl_from_probs(t, arrays[up], allow_zeros=True) for up in side1}
        pair = (min(d1, key=d1.get), min(d0, key=d0.get))
        scored.append((max(min(d0.values()), min(d1.values())), pair))
    best = min(value for value, _ in scored)
    report = exponent_sanov(laws, target, STEP)
    assert report.value == pytest.approx(best, abs=1e-12)
    # the first minimum in grid order wins; near-ties may resolve either way
    assert report.argmin_pair in {pair for value, pair in scored if value <= best + 1e-12}


@settings(max_examples=12)
@given(iid_laws(sizes=(2, 3), zeros=False))
def test_primal_oracle_matches_scalar_loop(laws):
    q1, q2, q3 = (laws.laws[up] for up in UP_PAIRS[:3])
    best = math.inf
    for t in reference_grid(q1.size):
        d1 = kl_from_probs(t, q1.probs, allow_zeros=True)
        d2 = kl_from_probs(t, q2.probs, allow_zeros=True)
        if d1 <= d2 and d1 <= kl_from_probs(t, q3.probs, allow_zeros=True):
            best = min(best, d2)
    value = composite_chernoff_primal_oracle(q1, q2, q3, STEP)
    if math.isinf(best):
        assert math.isinf(value)
    else:
        assert value == pytest.approx(best, abs=1e-12)
