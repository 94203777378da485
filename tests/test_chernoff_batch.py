"""Property tests of the batched Newton Chernoff kernel and the matmul push-forward.

The reference is the golden-section search ``reference.golden_chernoff``,
which reads only values of the objective, so neither Newton path (this
kernel or the scalar ``chernoff_from_probs``) serves as its own oracle.  It
evaluates an endpoint of [0, 1] whenever its final bracket touches it, so it
is exact for optima there too; the agreement test therefore draws weights
spanning twelve orders of magnitude (log-ratios up to about 30 nats) and
still holds the two to 1e-9.  Two-symbol rows, which are scored at the
closed-form root, are also held to a 60-digit ``decimal`` evaluation.
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from privtest import demo_model, induced_output_laws, policy_space, probkit
from privtest.bayes import _CHUNK_ELEMENTS, _FIRST, _SECOND, _law_set_rates
from privtest.optimizer import SearchConfig, grid_evaluation
from privtest.errors import ValidationError
from privtest.probkit import chernoff_symbol_major, kl_from_probs

from reference import golden_chernoff

PROPERTY = settings(max_examples=80)


def chernoff_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The kernel's rates of each row pair of two ``(B, m)`` arrays, scored
    as the columns of the transposed, contiguous ``(m, B)`` arrays."""
    return chernoff_symbol_major(p.T.copy(), q.T.copy())[0]


def _weights(m: int, low: int):
    return st.lists(st.integers(low, 20), min_size=m, max_size=m).filter(lambda w: sum(w) > 0)


def _spread_weights(m: int):
    """Zero, or a digit times 10^-e for e in 0..12."""
    weight = st.one_of(
        st.just(0.0),
        st.builds(lambda digit, e: digit * 10.0**-e, st.integers(1, 9), st.integers(0, 12)),
    )
    return st.lists(weight, min_size=m, max_size=m).filter(lambda w: sum(w) > 0)


@st.composite
def pmf_rows(draw, zeros: bool = True, spread: bool = False, max_rows: int = 8):
    """Two (B, m) arrays of pmfs with m in 2..6, zero masses allowed if
    ``zeros``; with ``spread``, weights span twelve orders of magnitude."""
    m = draw(st.integers(2, 6))
    rows = draw(st.integers(1, max_rows))
    weights = _spread_weights(m) if spread else _weights(m, 0 if zeros else 1)
    p = np.array([draw(weights) for _ in range(rows)], dtype=float)
    q = np.array([draw(weights) for _ in range(rows)], dtype=float)
    return p / p.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


@PROPERTY
@given(pmf_rows(spread=True))
def test_matches_scalar_reference_in_common_support_mode(pair):
    p, q = pair
    values = chernoff_rows(p, q)
    for row, value in enumerate(values):
        expected, _ = golden_chernoff(p[row], q[row])
        if math.isinf(expected):
            assert math.isinf(value)
        else:
            assert value == pytest.approx(expected, abs=1e-9)


# a mass of a digit times 10^-e, e = 1..12, or one minus such a mass
_MASS = st.builds(
    lambda digit, e, flip: 1.0 - digit * 10.0**-e if flip else digit * 10.0**-e,
    st.integers(1, 9), st.integers(1, 12), st.booleans(),
)


@st.composite
def two_symbol_pair(draw):
    """Two distinct two-symbol pmfs: independent, or 1e-1..1e-15 apart (the
    nearest ones are the columns that go on from the root to Newton)."""
    a = draw(_MASS)
    if draw(st.booleans()):
        b = draw(_MASS)
    else:
        gap = draw(st.integers(1, 9)) * 10.0 ** -draw(st.integers(1, 15))
        b = a + gap if a + gap < 1.0 else a - gap
    assume(0.0 < b < 1.0 and b != a)
    return (a, 1.0 - a), (b, 1.0 - b)


def _decimal_chernoff(p, q) -> decimal.Decimal:
    """``-log sum q_i exp(mu* d_i)``, ``d = log p/q``, at the exact root
    ``mu* = (log q_1 - log q_0 + log(-d_1/d_0)) / (d_0 - d_1)`` clipped to
    [0, 1], in 60 digits.  Float masses sum to 1 only to rounding, so for
    pairs 1e-12 apart the exact root can lie far outside [0, 1]."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p0, p1, q0, q1 = (decimal.Decimal(float(v)) for v in (*p, *q))
        d0, d1 = (p0 / q0).ln(), (p1 / q1).ln()
        mu = (q1.ln() - q0.ln() + (-d1 / d0).ln()) / (d0 - d1)
        mu = min(max(mu, decimal.Decimal(0)), decimal.Decimal(1))
        return -(q0 * (mu * d0).exp() + q1 * (mu * d1).exp()).ln()


@PROPERTY
@given(st.lists(two_symbol_pair(), min_size=1, max_size=8))
def test_two_symbol_rows_match_a_high_precision_reference(pairs):
    p = np.array([pq[0] for pq in pairs])
    q = np.array([pq[1] for pq in pairs])
    for value, pq in zip(chernoff_rows(p, q), pairs):
        expected = _decimal_chernoff(*pq)
        # 1e-15 plus the reference's own float spacing: opposite masses of
        # 1e-11 give values near 12, which no float holds closer than 9e-16
        bound = 1e-15 + math.ulp(float(expected))
        assert abs(decimal.Decimal(float(value)) - expected) <= bound


@pytest.fixture
def newton_columns(monkeypatch) -> list[int]:
    """The column count of every batch that reaches ``_chernoff_newton``."""
    counts = []
    newton = probkit._chernoff_newton

    def counted(lq, *rest):
        counts.append(lq.shape[1])
        return newton(lq, *rest)

    monkeypatch.setattr(probkit, "_chernoff_newton", counted)
    return counts


def test_two_symbol_batch_equals_each_column_alone_bit_for_bit(newton_columns):
    """Two-symbol columns are scored at their closed-form root, and only the
    near-equal ones go on to Newton, as one compacted batch started there;
    a batch that mixes them with well-separated columns gives every column
    the rate and tilt it gets alone."""
    rng = np.random.default_rng(23)
    count = 600
    a = rng.uniform(0.001, 0.999, size=count)
    gap = rng.integers(1, 10, size=count) * 10.0 ** -rng.integers(1, 16, size=count)
    near = np.where(a + gap < 1.0, a + gap, a - gap)
    b = np.where(rng.random(count) < 0.5, near, rng.uniform(0.001, 0.999, size=count))
    p = np.stack([a, 1.0 - a])
    q = np.stack([b, 1.0 - b])
    rates, tilts = chernoff_symbol_major(p, q)
    assert 0 < sum(newton_columns) < count  # both paths are taken
    for i in range(count):
        rate, tilt = chernoff_symbol_major(p[:, i : i + 1], q[:, i : i + 1])
        assert (rate[0], tilt[0]) == (rates[i], tilts[i])


def test_two_symbol_grid_never_reaches_newton(newton_columns):
    """The demo model's s = 2 grid at 41 points per parameter (68,921 rows of
    two-symbol pairs, the golden digest's grid) is scored at the closed-form
    roots alone: no column goes on to Newton."""
    grid = grid_evaluation(
        policy_space(demo_model(), s=2.0, k=1), SearchConfig(grid_points_per_parameter=41)
    )
    assert len(grid.utility) == 41**3
    assert newton_columns == []


@PROPERTY
@given(pmf_rows(zeros=False))
def test_symmetric_and_below_both_divergences(pair):
    p, q = pair
    forward = chernoff_rows(p, q)
    np.testing.assert_allclose(chernoff_rows(q, p), forward, rtol=0.0, atol=1e-12)
    for row, value in enumerate(forward):
        assert value <= kl_from_probs(p[row], q[row]) + 1e-12
        assert value <= kl_from_probs(q[row], p[row]) + 1e-12


@PROPERTY
@given(st.integers(2, 6), st.data())
def test_disjoint_supports_inf_and_identical_laws_zero(m, data):
    split = data.draw(st.integers(1, m - 1))
    p = np.array(data.draw(_weights(m, 1)), dtype=float)
    q = np.array(data.draw(_weights(m, 1)), dtype=float)
    p[split:] = 0.0
    q[:split] = 0.0
    p /= p.sum()
    q /= q.sum()
    assert math.isinf(chernoff_rows(p[None], q[None])[0])
    assert chernoff_rows(p[None], p[None])[0] == 0.0
    assert chernoff_rows(q[None], q[None])[0] == 0.0


def test_symbol_major_core_rejects_unequal_or_flat_arrays():
    with pytest.raises(ValidationError, match=r"\(m, B\)"):
        chernoff_symbol_major(np.full((2, 3), 0.5), np.full((3, 2), 0.5))
    with pytest.raises(ValidationError, match=r"\(m, B\)"):
        chernoff_symbol_major(np.full(2, 0.5), np.full(2, 0.5))


@settings(max_examples=6)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.sampled_from(["zeros", "full", "disjoint_and_equal"]),
)
@example(0, 2, "zeros")  # two-symbol rows take the closed-form start
@example(1, 3, "full")  # every chunk has full support and only inner pairs
@example(2, 2, "disjoint_and_equal")  # one disjoint and one equal pair among inner ones
@example(3, 4, "disjoint_and_equal")
def test_chunked_batch_equals_row_by_row_bit_for_bit(seed, m, layout):
    """A chunk and its rows one at a time take different branches of the
    kernel (masked or not, all pairs inner or not) and agree bit for bit;
    so does a screened batch on the rows it scores in full."""
    rng = np.random.default_rng(seed)
    per_chunk = _CHUNK_ELEMENTS // (len(_FIRST) * m)
    count = 2 * per_chunk + int(rng.integers(1, per_chunk))
    laws = rng.dirichlet(np.ones(m), size=(count, 4))
    if layout == "zeros":  # common-support rows, some disjoint
        laws[rng.random(laws.shape) < 0.1] = 0.0
        laws[laws.sum(axis=2) == 0.0] = 1.0 / m
    elif layout == "disjoint_and_equal":  # both in the first chunk
        disjoint, equal = rng.choice(per_chunk, size=2, replace=False)
        laws[disjoint, _FIRST[0], m // 2 :] = 0.0
        laws[disjoint, _SECOND[0], : m // 2] = 0.0
        laws[equal, _SECOND[1]] = laws[equal, _FIRST[1]]
    laws /= laws.sum(axis=2, keepdims=True)
    utility, privacy = _law_set_rates(laws, 2)[:2]
    for g in range(count):
        u, v = _law_set_rates(laws[g : g + 1], 2)[:2]
        assert (u[0], v[0]) == (utility[g], privacy[g])
    # screened against a floor, a row keeps its bits, or it is dropped with
    # privacy +inf and a utility from one of its pairs, below the floor
    floor = float(np.median(utility))
    screened_utility, screened_privacy = _law_set_rates(laws, 2, floor)[:2]
    kept = (screened_utility == utility) & (screened_privacy == privacy)
    assert kept[utility >= floor].all()
    dropped = ~kept
    assert np.isinf(screened_privacy[dropped]).all()
    assert (utility[dropped] <= screened_utility[dropped]).all()
    assert (screened_utility[dropped] < floor).all()


@pytest.mark.parametrize("m", [8, 9, 16])
def test_single_pairs_match_their_batch_bit_for_bit(m):
    """From 8 symbols on numpy sums a lone column, or any other contiguous
    axis, pairwise rather than first to last; the kernel's symbol sums still
    add first to last, for a one-pair call as for the last pair left in
    Newton, for a batch stored in either order, and for a law row scored
    alone (the optimizer's one-pair gathers arrive F-ordered) as in its
    batch."""
    rng = np.random.default_rng(m)
    p = rng.dirichlet(np.ones(m), size=64)
    q = rng.dirichlet(np.ones(m), size=64)
    rates = chernoff_rows(p, q)
    for i in range(len(p)):
        assert chernoff_rows(p[i : i + 1], q[i : i + 1])[0] == rates[i]
    p = rng.dirichlet(np.ones(m), size=2000)
    q = rng.dirichlet(np.ones(m), size=2000)
    c_order = chernoff_symbol_major(p.T.copy(), q.T.copy())
    f_order = chernoff_symbol_major(p.T, q.T)  # views of the (B, m) arrays
    assert all(np.array_equal(c, f) for c, f in zip(c_order, f_order))
    laws = rng.dirichlet(np.ones(m), size=(256, 4))
    utility, privacy = _law_set_rates(laws, 3)[:2]
    for g in range(len(laws)):
        u, v = _law_set_rates(laws[g : g + 1], 3)[:2]
        assert (u[0], v[0]) == (utility[g], privacy[g])


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([1.0, 2.0]))
def test_batch_laws_match_induced_output_laws(seed, k, s):
    model = demo_model()
    space = policy_space(model, s=s, k=k)
    rng = np.random.default_rng(seed)
    params = space.random_params(rng, 4)
    batch = space.batch_laws(params)
    for g in range(4):
        laws = induced_output_laws(model, space.kernel_from_params(params[g]))
        np.testing.assert_allclose(batch[g], laws.arrays(), rtol=0.0, atol=1e-15)
