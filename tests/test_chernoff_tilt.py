"""The tilt mu* returned by the Newton Chernoff kernel, and its warm starts.

For a column with rate C = -log Z, Z = sum p^mu* q^(1-mu*) over the common
support, the tilt is where the rate is evaluated, and by the envelope
theorem (Danskin) the rate's gradient is ``dC/dp_y = -mu* p_y^(mu*-1)
q_y^(1-mu*) / Z`` and ``dC/dq_y = -(1-mu*) p_y^mu* q_y^(-mu*) / Z``.  The
columns drawn here mix three kinds: independent pmfs with zero masses,
equal pmfs, and endpoint pmfs whose log-ratio is constant on the common
support (their optimum sits at mu = 0 or 1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtest.probkit import Pmf, chernoff_information_with_argmax, chernoff_symbol_major

PROPERTY = settings(max_examples=80)


@st.composite
def column(draw, m: int):
    """One (p, q) pair of m-symbol pmfs of a drawn kind."""
    weights = st.lists(st.integers(0, 20), min_size=m, max_size=m).filter(lambda w: sum(w) > 0)
    kind = draw(st.sampled_from(["independent", "equal", "endpoint"]))
    p = np.array(draw(weights), dtype=float)
    if kind == "independent":
        q = np.array(draw(weights), dtype=float)
    elif kind == "equal":
        q = p.copy()
    else:
        # p = q on q's support, plus mass where q has none: d is constant
        q = p.copy()
        extra = draw(st.integers(0, m - 1))
        q[extra] = 0.0
        p[extra] = draw(st.integers(1, 20))
        if q.sum() == 0.0:
            q[(extra + 1) % m] = p[(extra + 1) % m] = 1.0
    return p / p.sum(), q / q.sum()


@st.composite
def columns(draw):
    """Two symbol-major (m, B) arrays, m in 2..9, B in 1..6."""
    m = draw(st.integers(2, 9))
    pairs = draw(st.lists(column(m), min_size=1, max_size=6))
    return np.array([p for p, _ in pairs]).T.copy(), np.array([q for _, q in pairs]).T.copy()


def rate_at(p, q, mu):
    """-log sum p^mu q^(1-mu) over the common support, summed exactly."""
    common = (p > 0.0) & (q > 0.0)
    total = math.fsum(a**mu * b ** (1.0 - mu) for a, b in zip(p[common], q[common]))
    return -math.log(total) if total > 0.0 else math.inf


@PROPERTY
@given(columns())
def test_rate_at_the_tilt_is_the_rate(pq):
    p, q = pq
    rates, tilts = chernoff_symbol_major(p, q)
    assert np.all((tilts >= 0.0) & (tilts <= 1.0))
    for b, (rate, mu) in enumerate(zip(rates, tilts)):
        at_tilt = rate_at(p[:, b], q[:, b], mu)
        if math.isinf(rate):
            assert math.isinf(at_tilt)
        else:
            assert abs(max(at_tilt, 0.0) - rate) <= 1e-12


@PROPERTY
@given(columns())
def test_envelope_gradient_matches_central_differences(pq):
    p, q = pq
    rates, tilts = chernoff_symbol_major(p, q)
    h = 1e-7
    for b, (rate, mu) in enumerate(zip(rates, tilts)):
        common = np.flatnonzero((p[:, b] > 0.0) & (q[:, b] > 0.0))
        if math.isinf(rate) or len(common) < 2:
            continue
        pb, qb = p[common, b], q[common, b]
        z = np.sum(pb**mu * qb ** (1.0 - mu))
        grads = (
            -mu * pb ** (mu - 1.0) * qb ** (1.0 - mu) / z,
            -(1.0 - mu) * pb**mu * qb ** (-mu) / z,
        )
        # along the simplex: mass moves from symbol common[1] to common[0]
        for side, grad in enumerate(grads):
            shifted = []
            for sign in (1.0, -1.0):
                arrays = [p[:, b].copy(), q[:, b].copy()]
                arrays[side][common[0]] += sign * h
                arrays[side][common[1]] -= sign * h
                shifted.append(chernoff_symbol_major(arrays[0][:, None], arrays[1][:, None])[0][0])
            difference = (shifted[0] - shifted[1]) / (2.0 * h)
            assert difference == pytest.approx(grad[0] - grad[1], rel=1e-5, abs=1e-6)


@PROPERTY
@given(columns())
def test_tilt_agrees_with_the_scalar_argmax_where_the_optimum_is_strict(pq):
    p, q = pq
    _, tilts = chernoff_symbol_major(p, q)
    labels = tuple(range(len(p)))
    for b, mu in enumerate(tilts):
        pb, qb = p[:, b], q[:, b]
        if pb.min() <= 0.0 or qb.min() <= 0.0 or np.array_equal(pb, qb):
            continue
        d = np.log(pb / qb)
        w = pb**mu * qb ** (1.0 - mu)
        w /= w.sum()
        curvature = np.sum(w * d * d) - np.sum(w * d) ** 2  # L''(mu*)
        if curvature < 1e-2:
            continue
        _, expected = chernoff_information_with_argmax(
            Pmf(labels=labels, probs=tuple(pb)), Pmf(labels=labels, probs=tuple(qb))
        )
        assert abs(mu - expected) <= 1e-6


@PROPERTY
@given(columns(), st.data())
def test_warm_started_rates_equal_cold_rates(pq, data):
    p, q = pq
    cold, tilts = chernoff_symbol_major(p, q)
    # a column's own tilt, a distant one, or an endpoint
    starts = np.array(
        [data.draw(st.sampled_from([mu, 1.0 - mu, 0.0, 1.0, 0.5])) for mu in tilts]
    )
    warm, warm_tilts = chernoff_symbol_major(p, q, starts)
    np.testing.assert_array_equal(np.isinf(warm), np.isinf(cold))
    finite = np.isfinite(cold)
    assert np.all(np.abs(warm[finite] - cold[finite]) <= 1e-15)
    assert np.all((warm_tilts >= 0.0) & (warm_tilts <= 1.0))


def test_starting_tilts_must_match_the_columns():
    from privtest.errors import ValidationError

    with pytest.raises(ValidationError, match="starting tilts"):
        chernoff_symbol_major(np.full((2, 3), 0.5), np.full((2, 3), 0.5), np.zeros(2))
