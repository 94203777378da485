"""Hypothesis strategies for small drawn source models, shared by the tests."""

from hypothesis import strategies as st

from privtest import Alphabet, Pmf, Prior, SourceModel
from privtest.model import UP_PAIRS


def _weights(size):
    return st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)


def _values(size, lo, hi):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_subnormal=False),
        min_size=size, max_size=size, unique=True,
    ).map(sorted)


@st.composite
def small_models(draw, x_values=(-3.0, 3.0)):
    """(model, s) with |X|, |Z| in 1..3 and every noise value in [0, s], so
    the identity kernel, and with it each (model, s, k) family, is feasible."""
    s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    xs = draw(st.integers(1, 3).flatmap(lambda n: _values(n, *x_values)))
    zs = draw(st.integers(1, 3).flatmap(lambda n: _values(n, 0.0, s)))
    x_alpha, z_alpha = Alphabet(tuple(xs)), Alphabet(tuple(zs))
    cond = {up: Pmf.from_weights(x_alpha.values, draw(_weights(len(xs)))) for up in UP_PAIRS}
    noise = Pmf.from_weights(z_alpha.values, draw(_weights(len(zs))))
    model = SourceModel(
        x_alphabet=x_alpha, z_alphabet=z_alpha, prior=Prior.uniform(), cond=cond, noise=noise
    )
    return model, s
