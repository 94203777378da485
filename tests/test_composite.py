"""Property tests of the composite Chernoff solver on the dual triangle.

The dual objective is maximized over the triangle with corners (0, 0),
(1, 0) and (0, R), R = D(q1||q2) / D(q1||q3).  The solver must return a
point of that triangle together with the objective evaluated there, and no
other point may do better: random interior points and a fixed comb of edge
points stand in for the rest of the triangle.  Weights span eight orders of
magnitude, and half of the drawn triples tilt q1 by exp(eps z), eps = 1e-3
to 1e-5 and z an integer up to 9, to get q3, which stretches the triangle;
one test holds R at 1e6 and beyond.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privtest import (
    DualPoint,
    Pmf,
    chernoff_information,
    composite_chernoff,
    composite_chernoff_dual,
    composite_chernoff_with_argmax,
    kl_divergence,
)
from privtest.probkit import _DEGENERATE_KL

PROPERTY = settings(max_examples=80)

#: Edge points per edge of the triangle, corners included.
EDGE_POINTS = 33

#: Random points drawn inside the triangle.
INTERIOR_POINTS = 64


def _weights(m: int):
    """Positive weights, a digit times 10^-e for e in 0..8."""
    weight = st.builds(lambda digit, e: digit * 10.0**-e, st.integers(1, 9), st.integers(0, 8))
    return st.lists(weight, min_size=m, max_size=m)


def _pmf(weights) -> Pmf:
    w = np.asarray(weights, dtype=float)
    return Pmf(labels=tuple(range(len(w))), probs=tuple(w / w.sum()))


def _near(q1: Pmf, tilt, scale: float) -> Pmf:
    """q1 tilted by exp(scale * tilt) and renormalized."""
    return _pmf(np.asarray(q1.probs) * np.exp(scale * np.asarray(tilt, dtype=float)))


@st.composite
def triples(draw):
    """(q1, q2, q3) on 2..6 symbols; in half of the draws q3 nearly equals q1."""
    m = draw(st.integers(2, 6))
    q1 = _pmf(draw(_weights(m)))
    q2 = _pmf(draw(_weights(m)))
    if draw(st.booleans()):
        tilt = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
        q3 = _near(q1, tilt, 10.0 ** -draw(st.integers(3, 5)))
    else:
        q3 = _pmf(draw(_weights(m)))
    return q1, q2, q3


def _check_optimal(q1: Pmf, q2: Pmf, q3: Pmf, seed: int) -> None:
    value, point = composite_chernoff_with_argmax(q1, q2, q3)
    if q1 == q2:
        # -log sum q2 = 0 on the whole segment: exact, without its rounding
        assert (value, point) == (0.0, DualPoint(0.0, 0.0))
        return
    # otherwise the value is the objective at the point returned, clamped at 0
    assert value == max(composite_chernoff_dual(q1, q2, q3, point), 0.0)

    d12, d13 = kl_divergence(q1, q2), kl_divergence(q1, q3)
    t = np.linspace(0.0, 1.0, EDGE_POINTS)
    rng = np.random.default_rng(seed)
    u, v = rng.random((2, INTERIOR_POINTS))
    if d12 < _DEGENERATE_KL or d13 < _DEGENERATE_KL:
        # the triangle collapses to the segment nu = 0
        assert point.nu == 0.0 and 0.0 <= point.mu <= 1.0
        probes = [(mu, 0.0) for mu in np.concatenate([t, u])]
    else:
        ratio = d12 / d13
        assert point.mu >= 0.0 and point.nu >= 0.0
        assert point.nu <= (1.0 - point.mu) * ratio
        outside = u + v > 1.0  # reflect the unit square onto the triangle
        u[outside], v[outside] = 1.0 - u[outside], 1.0 - v[outside]
        probes = (
            [(x, 0.0) for x in t]
            + [(0.0, y * ratio) for y in t]
            + [(x, (1.0 - x) * ratio) for x in t]
            + [(x, y * ratio) for x, y in zip(u, v)]
        )
    for mu, nu in probes:
        probe = composite_chernoff_dual(q1, q2, q3, DualPoint(float(mu), float(nu)))
        assert value >= probe - 1e-12, (mu, nu, probe - value)


@PROPERTY
@given(triples(), st.integers(0, 2**32 - 1))
def test_value_is_the_objective_at_a_best_triangle_point(triple, seed):
    _check_optimal(*triple, seed)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_elongated_triangle_when_third_law_nearly_equals_first(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    q1 = _pmf(rng.dirichlet(np.ones(m)) + 0.01)
    q2 = _pmf(rng.dirichlet(np.ones(m)) + 0.01)
    q3 = _near(q1, rng.permutation(m), 1e-5)
    ratio = kl_divergence(q1, q2) / kl_divergence(q1, q3)
    assert ratio >= 1e6
    _check_optimal(q1, q2, q3, seed)


@PROPERTY
@given(triples())
def test_min_over_both_orders_is_min_chernoff(triple):
    a, b, c = triple
    lhs = min(composite_chernoff(a, b, c), composite_chernoff(a, c, b))
    rhs = min(chernoff_information(a, b), chernoff_information(a, c))
    assert math.isclose(lhs, rhs, rel_tol=0.0, abs_tol=1e-9)
