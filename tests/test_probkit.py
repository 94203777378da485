"""Unit tests for the divergence kernels.

Expected values are frozen from independent oracles: the defining sums
evaluated by hand for KL and the composite dual objective, a dense 1-D
grid and the golden-section search of ``reference`` for Chernoff
information, and the simplex-grid primal for the composite divergence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtest import (
    DualPoint,
    NumericalError,
    Pmf,
    SupportError,
    ValidationError,
    AlphabetError,
    EnumerationCapError,
    chernoff_information,
    chernoff_information_with_argmax,
    kl_divergence,
    composite_chernoff_primal_oracle,
    OutputLaws,
    product_laws,
    composite_chernoff,
    composite_chernoff_dual,
)
from privtest.model import UP_PAIRS
from privtest.probkit import (
    _grid_steps,
    chernoff_from_probs,
    composite_chernoff_with_argmax,
    composition_lattice,
)
from reference import golden_chernoff, golden_section_max


def random_pmf(rng, size, floor=1e-3):
    w = np.maximum(rng.dirichlet(np.ones(size)), floor)
    return Pmf(labels=tuple(range(size)), probs=tuple(w / w.sum()))


class TestPmf:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Pmf(labels=(0, 1), probs=(0.5, 0.6))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            Pmf(labels=(0, 1), probs=(-0.1, 1.1))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Pmf(labels=(0, 0), probs=(0.5, 0.5))

    def test_full_support_flag(self):
        assert Pmf.bernoulli(0.3).full_support
        assert not Pmf.bernoulli(1.0).full_support

    def test_product_extension(self):
        p = Pmf(labels=((0,), (1,)), probs=Pmf.bernoulli(0.25).probs)
        pk = product_laws(OutputLaws(k=1, laws={up: p for up in UP_PAIRS}), 2).laws[(0, 0)]
        assert pk.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        np.testing.assert_allclose(
            pk.probs, (0.0625, 0.1875, 0.1875, 0.5625), atol=1e-15
        )


class TestKlDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = random_pmf(rng, int(rng.integers(2, 6)))
            assert kl_divergence(q, q) == 0.0

    def test_bernoulli_half_vs_quarter(self):
        # direct evaluation of the defining sum
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        value = kl_divergence(Pmf.bernoulli(0.5), Pmf.bernoulli(0.25))
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.143841036226, abs=1e-9)

    def test_degenerate_first_argument(self):
        one = Pmf.bernoulli(1.0)
        half = Pmf.bernoulli(0.5)
        with pytest.raises(SupportError):
            kl_divergence(one, half)
        assert kl_divergence(one, half, allow_zeros=True) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_zero_in_second_argument_raises(self):
        with pytest.raises(SupportError):
            kl_divergence(Pmf.bernoulli(0.5), Pmf.bernoulli(1.0))
        with pytest.raises(SupportError):
            kl_divergence(Pmf.bernoulli(0.5), Pmf.bernoulli(1.0), allow_zeros=True)

    def test_alphabet_mismatch(self):
        p = Pmf(labels=("a", "b"), probs=(0.5, 0.5))
        with pytest.raises(AlphabetError):
            kl_divergence(p, Pmf.bernoulli(0.5))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            size = int(rng.integers(2, 6))
            p, q = random_pmf(rng, size), random_pmf(rng, size)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if d <= 1e-9:
                np.testing.assert_allclose(p.probs, q.probs, atol=1e-4)


class TestChernoffInformation:
    def test_identity_is_zero(self):
        q = Pmf.bernoulli(0.37)
        assert chernoff_information(q, q) == 0.0

    def test_equal_pmfs_give_positive_zero(self):
        # the objective at equal pmfs is -log 1 up to rounding, here -0.0
        q = Pmf.bernoulli(0.5)
        assert math.copysign(1.0, chernoff_information(q, q)) == 1.0

    def test_symmetric_bernoulli_pair(self):
        # mu* = 1/2 by symmetry, giving -log(2 sqrt(0.1 * 0.9)) = -log 0.6;
        # confirmed against a dense 1-D grid of the objective
        q1, q2 = Pmf.bernoulli(0.1), Pmf.bernoulli(0.9)
        value, mu = chernoff_information_with_argmax(q1, q2)
        assert value == pytest.approx(-math.log(0.6), abs=1e-10)
        assert mu == pytest.approx(0.5, abs=1e-6)
        grid = max(
            -math.log(0.1**m * 0.9 ** (1 - m) + 0.9**m * 0.1 ** (1 - m))
            for m in np.linspace(0.0, 1.0, 20001)
        )
        assert value == pytest.approx(grid, abs=1e-8)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            size = int(rng.integers(2, 5))
            a, b = random_pmf(rng, size), random_pmf(rng, size)
            assert abs(chernoff_information(a, b) - chernoff_information(b, a)) <= 1e-8

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_pmf(rng, 3), random_pmf(rng, 3)
            c = chernoff_information(a, b)
            if c <= 1e-9:
                np.testing.assert_allclose(a.probs, b.probs, atol=1e-3)

    def test_never_exceeds_either_kl(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            size = int(rng.integers(2, 6))
            a, b = random_pmf(rng, size), random_pmf(rng, size)
            c = chernoff_information(a, b)
            assert c <= kl_divergence(a, b) + 1e-10
            assert c <= kl_divergence(b, a) + 1e-10

    def test_requires_full_support(self):
        with pytest.raises(SupportError):
            chernoff_information(Pmf.bernoulli(1.0), Pmf.bernoulli(0.5))

    def test_common_support_mode(self):
        # disjoint supports are perfectly distinguishable
        a = Pmf(labels=(0, 1), probs=(1.0, 0.0))
        b = Pmf(labels=(0, 1), probs=(0.0, 1.0))
        assert math.isinf(chernoff_information(a, b, allow_zeros=True))
        assert chernoff_information(a, a, allow_zeros=True) == 0.0

    def test_optimum_at_endpoint_is_exact(self):
        # the common support is symbol 0 alone, so the objective is linear in
        # mu and peaks at mu = 1 with value -log(1.3e-11); the search must
        # return that endpoint itself, not a point just inside it
        value, mu = chernoff_from_probs(
            [1.3e-11, 0, 1, 0], [0.0216, 0.978, 0, 0], allow_zeros=True
        )
        assert value == pytest.approx(-math.log(1.3e-11), abs=1e-12)
        assert mu == 1.0
        value, mu = chernoff_from_probs([0.0216, 0.978, 0], [1.3e-11, 0, 1], allow_zeros=True)
        assert value == pytest.approx(-math.log(1.3e-11), abs=1e-12)
        assert mu == 0.0


_WEIGHT = st.one_of(
    st.just(0.0),
    st.builds(lambda digit, e: digit * 10.0**-e, st.integers(1, 9), st.integers(0, 12)),
)


@st.composite
def reference_pairs(draw):
    """Two pmfs on 1-16 symbols with zero masses and weights spanning twelve
    orders of magnitude: independent, equal, with disjoint supports, or
    sharing one symbol (a linear objective, optimal at an endpoint)."""
    m = draw(st.integers(1, 16))
    weights = st.lists(_WEIGHT, min_size=m, max_size=m).filter(lambda w: sum(w) > 0)
    p, q = draw(weights), draw(weights)
    layout = draw(st.sampled_from(["independent", "equal", "disjoint", "endpoint"]))
    if layout == "equal":
        q = list(p)
    elif layout == "disjoint" and m > 1:
        split = draw(st.integers(1, m - 1))
        p = [1.0 + w for w in p[:split]] + [0.0] * (m - split)
        q = [0.0] * split + [1.0 + w for w in q[split:]]
    elif layout == "endpoint":
        shared = draw(st.integers(0, m - 1))
        p = [1.0 + w if i == shared else w for i, w in enumerate(p)]
        q = [1.0 + w if i == shared else (0.0 if p[i] > 0.0 else w) for i, w in enumerate(q)]
    return [w / math.fsum(p) for w in p], [w / math.fsum(q) for w in q]


@settings(max_examples=300)
@given(reference_pairs())
def test_scalar_newton_matches_golden_section_reference(pair):
    p, q = pair
    value, mu = chernoff_from_probs(p, q, allow_zeros=True)
    expected, expected_mu = golden_chernoff(p, q)
    if math.isinf(expected):
        assert math.isinf(value)
    elif p == q:
        assert (value, mu) == (0.0, 0.0)
        assert expected <= 1e-15
    else:
        # relative, plus the rounding of a log-sum-exp near 1 (about 1e-16
        # absolute), which no relative bound holds for values near 0
        assert abs(value - expected) <= 1e-12 * expected + 1e-15
        if expected_mu in (0.0, 1.0):
            assert mu == expected_mu


def test_composite_on_its_first_law_is_chernoff_bit_for_bit():
    # q3 = q1 leaves the segment nu = 0, solved by the same code as C(q1, q2)
    rng = np.random.default_rng(31)
    for _ in range(500):
        size = int(rng.integers(2, 6))
        q1, q2 = (random_pmf(rng, size) for _ in range(2))
        assert composite_chernoff(q1, q2, q1) == chernoff_information(q1, q2)


class TestCompositeDual:
    def test_collapses_at_corners(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b, c = (random_pmf(rng, 3) for _ in range(3))
            assert composite_chernoff_dual(a, b, c, DualPoint(1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
            assert composite_chernoff_dual(a, b, c, DualPoint(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_binary_hand_value(self):
        # two-term sum evaluated by hand:
        # -log(0.8 * 0.1^0.5 * 0.25^-0.5 + 0.2 * 0.9^0.5 * 0.75^-0.5)
        expected = -math.log(
            0.8 * math.sqrt(0.1) / math.sqrt(0.25)
            + 0.2 * math.sqrt(0.9) / math.sqrt(0.75)
        )
        value = composite_chernoff_dual(
            Pmf.bernoulli(0.8), Pmf.bernoulli(0.1), Pmf.bernoulli(0.25),
            DualPoint(0.5, 0.5),
        )
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(0.321509904598, abs=1e-9)

    def test_joint_concavity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            size = int(rng.integers(2, 5))
            q1, q2, q3 = (random_pmf(rng, size) for _ in range(3))
            pa = DualPoint(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 2.0))
            pb = DualPoint(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 2.0))
            tau = rng.uniform(0.1, 0.9)
            mid = DualPoint(
                tau * pa.mu + (1 - tau) * pb.mu, tau * pa.nu + (1 - tau) * pb.nu
            )
            lhs = composite_chernoff_dual(q1, q2, q3, mid)
            rhs = tau * composite_chernoff_dual(q1, q2, q3, pa) + (1 - tau) * composite_chernoff_dual(q1, q2, q3, pb)
            assert lhs >= rhs - 1e-9


class TestCompositeChernoff:
    def test_degenerate_first_two(self):
        q = Pmf.bernoulli(0.3)
        r = Pmf.bernoulli(0.7)
        assert composite_chernoff(q, q, r) == 0.0

    def test_matches_min_chernoff(self):
        # the minimum over the two argument orders equals min of the Chernoffs
        rng = np.random.default_rng(23)
        for _ in range(30):
            size = int(rng.integers(2, 6))
            a, b, c = (random_pmf(rng, size) for _ in range(3))
            lhs = min(composite_chernoff(a, b, c), composite_chernoff(a, c, b))
            rhs = min(chernoff_information(a, b), chernoff_information(a, c))
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_matches_primal_oracle_binary(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            base = rng.uniform(0.25, 0.75)
            thetas = [base] + [
                min(max(base + rng.uniform(0.05, 0.15) * rng.choice((-1.0, 1.0)), 0.05), 0.95)
                for _ in range(2)
            ]
            a, b, c = (Pmf.bernoulli(t) for t in thetas)
            dual = composite_chernoff(a, b, c)
            primal = composite_chernoff_primal_oracle(a, b, c, 1e-3)
            assert dual == pytest.approx(primal, abs=1e-3)

    def test_optimum_on_mu_zero_edge_is_exact(self):
        # the optimum lies on the edge mu = 0, at nu = 1.8128; a search that
        # stops short of that edge (mu = 1.35e-9) reports 2.8e-9 nats less
        q1, q2, q3 = Pmf.bernoulli(0.9951), Pmf.bernoulli(0.0998), Pmf.bernoulli(0.9017)
        ratio = kl_divergence(q1, q2) / kl_divergence(q1, q3)
        _, edge = golden_section_max(
            lambda nu: composite_chernoff_dual(q1, q2, q3, DualPoint(0.0, nu)), 0.0, ratio
        )
        assert composite_chernoff(q1, q2, q3) >= edge - 1e-15

    def test_interior_optimum_outranks_its_neighbours(self):
        # q3 within 5e-6 of q1 puts the optimum at nu = 5.1e4; evaluated as
        # (mu+nu) l1 + (1-mu) l2 - nu l3 its neighbours came out 1.4e-11 higher
        labels = (0, 1, 2)
        q1 = Pmf(labels, (0.6917233443209908, 0.26158650572237163, 0.046690149956637554))
        q2 = Pmf(labels, (0.02628037857600982, 0.12644642722059493, 0.8472731942033952))
        q3 = Pmf(labels, (0.6917183443209909, 0.26159150572237166, 0.04669014995663756))
        value, point = composite_chernoff_with_argmax(q1, q2, q3)
        assert 0.0 < point.mu < 1.0 and point.nu > 5e4
        steps = ((0.0, -5e-5), (0.0, 5e-5), (0.0, -5e-4), (0.0, 5e-4), (-1e-6, 0.0), (1e-6, 0.0))
        for dmu, dnu in steps:
            near = DualPoint(point.mu + dmu, point.nu + dnu)
            assert composite_chernoff_dual(q1, q2, q3, near) <= value + 1e-15

    def test_near_degenerate_third_argument(self):
        # q3 almost equal to q1 makes the dual search region extremely
        # elongated; the value must still match the primal
        q1 = Pmf(labels=(0, 1), probs=(0.07167304, 0.92832696))
        q2 = Pmf(labels=(0, 1), probs=(0.97956658, 0.02043342))
        q3 = Pmf(labels=(0, 1), probs=(0.07242873, 0.92757127))
        dual = composite_chernoff(q1, q2, q3)
        assert dual == pytest.approx(composite_chernoff_primal_oracle(q1, q2, q3, 1e-3), abs=1e-3)


class TestPrimalOracle:
    def test_equal_first_two_gives_zero(self):
        q = Pmf.bernoulli(0.4)
        r = Pmf.bernoulli(0.9)
        assert composite_chernoff_primal_oracle(q, q, r, 0.01) == 0.0

    def test_grid_point_count(self):
        def points(size, grid_step):
            return sum(len(c) for c in composition_lattice(_grid_steps(size, grid_step), size))

        assert points(2, 0.5) == 3
        assert points(2, 1e-3) == 1001
        assert points(3, 0.5) == 6

    def test_infeasible_returns_inf_sentinel(self):
        # on the 3-point binary grid at step 0.5 no point satisfies both
        # constraints for this triple
        q1 = Pmf.bernoulli(0.8)
        q2 = Pmf.bernoulli(0.9)
        q3 = Pmf.bernoulli(0.5)
        assert math.isinf(composite_chernoff_primal_oracle(q1, q2, q3, 0.5))

    def test_grid_cap_refuses_before_enumerating(self):
        # C(10003, 3) = 1.7e11 grid pmfs on 4 symbols at step 1e-4
        p = Pmf.uniform(tuple(range(4)))
        with pytest.raises(EnumerationCapError, match="grid points"):
            composite_chernoff_primal_oracle(p, p, p, 1e-4)

    def test_oversized_alphabet_refused(self):
        from privtest import SizeCapError

        p = Pmf.uniform(tuple(range(5)))
        with pytest.raises(SizeCapError):
            composite_chernoff_primal_oracle(p, p, p, 0.1)
