"""Tests for the reference decision rules, exact error probabilities, and error exponents.

The frozen exponent constants below were cross-confirmed with a dense 1-D
grid over the Chernoff objective; the n=1 error values are two-symbol hand
evaluations of the defining sum.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privtest import (
    EnumerationCapError,
    ExponentMethod,
    Pmf,
    Prior,
    SupportError,
    TestTarget,
    chernoff_information,
    constant_policy,
    demo_model,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_composite,
    exponent_lower_bound,
    exponent_sanov,
    exponent_chernoff,
    source_laws,
    composite_chernoff,
)
from privtest import bayes, verify
from privtest.bayes import _REST, _SCREEN, _law_set_rates, _side_laws
from privtest.errors import ValidationError
from privtest.model import (
    UP_PAIRS,
    OutputLaws,
    identity_policy,
    induced_output_laws,
    policy_space,
)
from privtest.probkit import composition_lattice
from privtest.verify import (
    SUITES,
    random_kernel_laws,
    suite_convergence,
    suite_exponent_bound,
    suite_exponent_consistency,
    suite_tensorization,
)
from reference import map_decision, map_decision_for_type, type_test_decision

UNIFORM = Prior.uniform()

# minimal utility-pair Chernoff information of the bundled model:
# C(Bern(0.8) || Bern(0.25)), achieved at (p index of u=1 law, p index of
# u=0 law) = (0, 1); confirmed by dense grid
UTILITY_EXPONENT = 0.1809401482504862
# minimal privacy-pair value: C(Bern(0.9) || Bern(0.8)) at (u, u) = (1, 1)
PRIVACY_EXPONENT = 0.0101245165799592


def equal_laws(theta=0.35):
    pmf = Pmf(labels=((0.0,), (1.0,)), probs=(theta, 1.0 - theta))
    return OutputLaws(k=1, laws={up: pmf for up in UP_PAIRS})


def binary_laws(thetas):
    labels = ((0.0,), (1.0,))
    return OutputLaws(
        k=1,
        laws={
            up: Pmf(labels=labels, probs=(t, 1.0 - t))
            for up, t in zip(UP_PAIRS, thetas)
        },
    )


def four_symbol_laws():
    labels = ((0.0,), (1.0,), (2.0,), (3.0,))
    probs = ((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1), (0.25,) * 4, (0.1, 0.4, 0.4, 0.1))
    return OutputLaws(
        k=1, laws={up: Pmf(labels=labels, probs=p) for up, p in zip(UP_PAIRS, probs)}
    )


def ternary_laws(rng):
    labels = ((0.0,), (1.0,), (2.0,))
    laws = {}
    for up in UP_PAIRS:
        w = np.maximum(rng.dirichlet(np.ones(3)), 0.05)
        laws[up] = Pmf(labels=labels, probs=tuple(w / w.sum()))
    return OutputLaws(k=1, laws=laws)


def zero_mass_laws(rng, m):
    """Four k = 1 laws on m symbols with zero masses: each symbol of each law
    is 0 with probability 0.35, law (0, 0) has at least one 0, and a law
    left with none becomes a point mass."""
    labels = tuple((float(a),) for a in range(m))
    weights = rng.dirichlet(np.ones(m), size=4)
    weights[rng.random((4, m)) < 0.35] = 0.0
    weights[0, rng.integers(m)] = 0.0
    empty = weights.sum(axis=1) == 0.0
    weights[empty, rng.integers(m)] = 1.0
    return OutputLaws(
        k=1, laws={up: Pmf.from_weights(labels, w) for up, w in zip(UP_PAIRS, weights)}
    )


def zero_mass_cases(seed, count):
    """The constant kernel's laws under the uniform prior -- one point mass
    for every (u, p), the optimum that the demo model's s = 2 sweep returns
    at lambda 0 -- then ``count`` seeded zero-mass law sets on 2 to 4
    symbols, each under a random full prior."""
    model = demo_model()
    cases = [(induced_output_laws(model, constant_policy(model, 2.0, 1.0)), UNIFORM)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        laws = zero_mass_laws(rng, int(rng.integers(2, 5)))
        cases.append((laws, Prior(tuple(rng.dirichlet(np.ones(4))))))
    return cases


priors = (
    st.lists(st.integers(0, 9), min_size=4, max_size=4)
    .filter(any)
    .map(lambda w: Prior(tuple(x / sum(w) for x in w)))
)


@st.composite
def laws_and_horizon(draw):
    """k = 1 laws with up to 5 blocks, or k = 2 laws with up to 2, on 2 or 3
    symbols; zero masses allowed."""
    k = draw(st.sampled_from([1, 2]))
    labels = tuple(itertools.product(map(float, range(draw(st.integers(2, 3)))), repeat=k))
    masses = st.lists(st.integers(0, 9), min_size=len(labels), max_size=len(labels)).filter(any)
    laws = OutputLaws(k=k, laws={up: Pmf.from_weights(labels, draw(masses)) for up in UP_PAIRS})
    return laws, draw(st.integers(1, 5 if k == 1 else 2))


class TestMapDecision:
    @settings(max_examples=40)
    @given(laws_and_horizon(), priors, st.sampled_from(list(TestTarget)))
    def test_misclassified_mass_equals_exact_min_error(self, drawn, prior, target):
        # the reference MAP rule as an oracle: the prior mass it misclassifies,
        # summed over every output sequence, is the exact Bayes error
        laws, n = drawn
        mass = 0.0
        for blocks in itertools.product(laws.block_labels, repeat=n):
            decision = map_decision(itertools.chain(*blocks), laws, prior, target)
            for up in _side_laws(target, 1 - decision):
                mass += prior.prob(*up) * math.prod(laws.laws[up].prob(b) for b in blocks)
        assert mass == pytest.approx(exact_min_error(laws, prior, target, n), rel=0, abs=1e-12)

    def test_equal_laws_tie_goes_to_zero(self):
        laws = equal_laws()
        for seq in ((0.0,), (1.0,), (0.0, 1.0, 1.0)):
            assert map_decision(seq, laws, UNIFORM, TestTarget.UTILITY) == 0
            assert map_decision(seq, laws, UNIFORM, TestTarget.PRIVACY) == 0

    def test_demo_single_observation(self, identity_laws):
        # at y=0 the u=1 group mass 0.25*(0.8+0.9) beats 0.25*(0.1+0.25)
        assert map_decision((0.0,), identity_laws, UNIFORM, TestTarget.UTILITY) == 1
        # and the u=0 group wins at y=1: 0.25*(0.9+0.75) > 0.25*(0.2+0.1)
        assert map_decision((1.0,), identity_laws, UNIFORM, TestTarget.UTILITY) == 0

    def test_matches_direct_ratio_test(self, identity_laws):
        # independent re-derivation: decide by the grouped likelihood ratio
        rng = np.random.default_rng(43)
        arrays = {up: identity_laws.laws[up].array() for up in UP_PAIRS}
        for _ in range(50):
            seq = tuple(float(v) for v in rng.integers(0, 2, size=6))
            idx = [int(v) for v in seq]
            lik = {up: math.prod(arrays[up][i] for i in idx) for up in UP_PAIRS}
            num = 0.25 * (lik[(0, 0)] + lik[(0, 1)])
            den = 0.25 * (lik[(1, 0)] + lik[(1, 1)])
            expected = 0 if num >= den else 1
            assert map_decision(seq, identity_laws, UNIFORM, TestTarget.UTILITY) == expected

    def test_length_must_be_block_multiple(self, model):
        laws = source_laws(model, k=2)
        with pytest.raises(Exception):
            map_decision((0.0,), laws, UNIFORM, TestTarget.UTILITY)


class TestExactMinError:
    def test_identical_laws_give_half(self):
        laws = equal_laws()
        for n in (1, 3, 6):
            assert exact_min_error(laws, UNIFORM, TestTarget.UTILITY, n) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_demo_single_slot_values(self, identity_laws):
        # utility: sum_y min(0.25*(0.1+0.25), 0.25*(0.8+0.9)) etc = 0.1625
        assert exact_min_error(
            identity_laws, UNIFORM, TestTarget.UTILITY, 1
        ) == pytest.approx(0.1625, abs=1e-14)
        # privacy: min(0.225, 0.2875) + min(0.275, 0.2125) = 0.4375
        assert exact_min_error(
            identity_laws, UNIFORM, TestTarget.PRIVACY, 1
        ) == pytest.approx(0.4375, abs=1e-14)

    def test_enumeration_cap(self, identity_laws):
        with pytest.raises(EnumerationCapError):
            exact_min_error(identity_laws, UNIFORM, TestTarget.UTILITY, 40)

    def test_type_class_cap_refuses_before_enumerating(self):
        # C(803, 3) = 85.9 M type classes of length-800 sequences on 4 symbols
        with pytest.raises(EnumerationCapError, match="type classes"):
            exact_min_error_iid_log(four_symbol_laws(), UNIFORM, TestTarget.UTILITY, 800)

    def test_agrees_with_type_class_path(self, identity_laws):
        for target in TestTarget:
            for n in (1, 2, 3, 4):
                enum = exact_min_error(identity_laws, UNIFORM, target, n)
                types = math.exp(exact_min_error_iid_log(identity_laws, UNIFORM, target, n))
                assert types == pytest.approx(enum, abs=1e-12)

    def test_never_beats_constant_decision(self, identity_laws):
        # grouped prior mass 1/2 upper-bounds nothing; alpha must be <= 1/2
        for n in (1, 5, 9):
            alpha = exact_min_error(identity_laws, UNIFORM, TestTarget.PRIVACY, n)
            assert 0.0 <= alpha <= 0.5

    def test_monotone_nonincreasing_in_n(self, identity_laws):
        for target in TestTarget:
            previous = math.inf
            for n in (1, 2, 4, 8, 16, 50, 100, 200, 400, 800):
                alpha = math.exp(exact_min_error_iid_log(identity_laws, UNIFORM, target, n))
                assert alpha <= previous + 1e-15
                previous = alpha

    def test_block_laws_consistent_with_iid(self, model, identity_laws):
        # two 2-slot blocks of the product laws cover the same 4-slot horizon
        laws2 = source_laws(model, k=2)
        for target in TestTarget:
            a = exact_min_error(laws2, UNIFORM, target, 2)
            b = math.exp(exact_min_error_iid_log(identity_laws, UNIFORM, target, 4))
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("k, blocks", [(2, range(1, 6)), (3, range(1, 4))])
    def test_type_classes_of_block_laws_equal_enumeration(self, model, k, blocks):
        # k-block laws are i.i.d. super-symbols: the horizon counts blocks
        laws = induced_output_laws(model, identity_policy(model, s=1.0, k=k))
        for target in TestTarget:
            for n in blocks:
                enum = exact_min_error(laws, model.prior, target, n)
                types = math.exp(exact_min_error_iid_log(laws, model.prior, target, n))
                assert types == pytest.approx(enum, rel=0, abs=1e-12)


class TestTypeTest:
    def test_law_types_classified_to_their_side(self, identity_laws):
        # a type equal to a u=0 law has zero divergence to its own side
        # counts (1, 9): empirical (0.1, 0.9) = law(0,0)
        assert type_test_decision((1, 9), identity_laws, TestTarget.UTILITY) == 0
        # counts (9, 1): empirical (0.9, 0.1) = law(1,1)
        assert type_test_decision((9, 1), identity_laws, TestTarget.UTILITY) == 1

    def test_disagreement_with_map_vanishes(self, identity_laws):
        # total mixture probability of types where the asymptotic test and
        # the MAP rule differ at n=400
        n = 400
        arrays = {up: identity_laws.laws[up].array() for up in UP_PAIRS}
        for target in TestTarget:
            mass = 0.0
            for counts in np.concatenate(list(composition_lattice(n, 2))).tolist():
                if type_test_decision(counts, identity_laws, target) != map_decision_for_type(
                    counts, identity_laws, UNIFORM, target
                ):
                    log_coef = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
                    for up in UP_PAIRS:
                        log_p = log_coef + sum(
                            c * math.log(q) for c, q in zip(counts, arrays[up])
                        )
                        mass += 0.25 * math.exp(log_p)
            assert mass <= 1e-3


class TestExponents:
    def test_identical_laws_zero(self):
        laws = equal_laws()
        for target in TestTarget:
            assert exponent_chernoff(laws, target).value == 0.0
            assert exponent_composite(laws, target).value == pytest.approx(0.0, abs=1e-9)
            assert exponent_sanov(laws, target, 1e-2).value == pytest.approx(0.0, abs=1e-12)

    def test_demo_utility_exponent(self, identity_laws):
        report = exponent_chernoff(identity_laws, TestTarget.UTILITY)
        assert report.value == pytest.approx(UTILITY_EXPONENT, abs=1e-9)
        assert report.argmin_pair == ((1, 0), (0, 1))
        assert report.method is ExponentMethod.CHERNOFF
        # the minimum over the four candidate pairs, recomputed directly
        direct = min(
            chernoff_information(identity_laws.laws[(1, pb)], identity_laws.laws[(0, pt)])
            for pb in (0, 1)
            for pt in (0, 1)
        )
        assert report.value == pytest.approx(direct, abs=1e-12)

    def test_demo_privacy_exponent(self, identity_laws):
        report = exponent_chernoff(identity_laws, TestTarget.PRIVACY)
        assert report.value == pytest.approx(PRIVACY_EXPONENT, abs=1e-9)
        assert report.argmin_pair == ((1, 1), (1, 0))

    def test_t_form_matches_chernoff_form(self, identity_laws):
        for target in TestTarget:
            a = exponent_chernoff(identity_laws, target).value
            b = exponent_composite(identity_laws, target).value
            assert abs(a - b) <= 1e-6

    def test_t_form_value_is_a_lower_envelope(self, identity_laws):
        # every individual composite divergence dominates the reported minimum
        report = exponent_composite(identity_laws, TestTarget.UTILITY)
        for u in (0, 1):
            for p in (0, 1):
                for pb in (0, 1):
                    value = composite_chernoff(
                        identity_laws.laws[(u, p)],
                        identity_laws.laws[(1 - u, pb)],
                        identity_laws.laws[(1 - u, 1 - pb)],
                    )
                    assert value >= report.value - 1e-12

    def test_sanov_agrees_on_demo(self, identity_laws):
        for target in TestTarget:
            chern = exponent_chernoff(identity_laws, target).value
            sanov = exponent_sanov(identity_laws, target, 1e-3).value
            assert abs(chern - sanov) <= 2e-3

    def test_sanov_grid_cap_refuses_before_enumerating(self):
        # C(1003, 3) = 167.7 M grid pmfs on 4 symbols at step 1e-3
        with pytest.raises(EnumerationCapError, match="grid points"):
            exponent_sanov(four_symbol_laws(), TestTarget.PRIVACY, 1e-3)

    def test_sanov_one_symbol_is_zero(self):
        pmf = Pmf(labels=((0.0,),), probs=(1.0,))
        laws = OutputLaws(k=1, laws={up: pmf for up in UP_PAIRS})
        for target in TestTarget:
            assert exponent_sanov(laws, target, 1e-3).value == 0.0

    def test_sanov_grid_refinement_stability(self, identity_laws):
        coarse = exponent_sanov(identity_laws, TestTarget.UTILITY, 1e-2).value
        fine = exponent_sanov(identity_laws, TestTarget.UTILITY, 1e-3).value
        assert abs(coarse - fine) <= 1e-2

    def test_three_way_on_random_binary_and_ternary(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            laws = binary_laws(rng.uniform(0.2, 0.8, size=4))
            for target in TestTarget:
                values = [
                    exponent_chernoff(laws, target).value,
                    exponent_composite(laws, target).value,
                    exponent_sanov(laws, target, 1e-3).value,
                ]
                assert max(values) - min(values) <= 2e-3
        for _ in range(3):
            laws = ternary_laws(rng)
            for target in TestTarget:
                chern = exponent_chernoff(laws, target).value
                tform = exponent_composite(laws, target).value
                sanov = exponent_sanov(laws, target, 5e-3).value
                assert abs(chern - tform) <= 1e-6
                assert abs(chern - sanov) <= 6e-3

    def test_zero_mass_chernoff_equals_the_optimizer_rates(self, model):
        # the Chernoff route is the one-law-set case of the optimizer's
        # stack scorer, each pair over its common support, so it reports the
        # bits of every stack its laws are scored in
        rng = np.random.default_rng(8)
        kernel_laws = [
            random_kernel_laws(rng, model, policy_space(model, 2.0, k))
            for k in (1, 2, 3)
            for _ in range(5)
        ]
        stacks = {}
        for laws in [laws for laws, _ in zero_mass_cases(5, 100)] + kernel_laws:
            stacks.setdefault((laws.k, len(laws.block_labels)), []).append(laws)
        for (k, _), law_sets in stacks.items():
            stack = np.stack([laws.arrays() for laws in law_sets])
            rates = _law_set_rates(stack, k)[:2]
            for g, laws in enumerate(law_sets):
                for target, rate in zip((TestTarget.UTILITY, TestTarget.PRIVACY), rates):
                    assert exponent_chernoff(laws, target).value.hex() == float(rate[g]).hex()

    def test_zero_mass_laws_refused_by_the_log_routes(self):
        # the composite and Sanov routes take the log of every mass
        for laws, _ in zero_mass_cases(5, 10):
            for target in TestTarget:
                with pytest.raises(SupportError, match="lacks full support"):
                    exponent_composite(laws, target)
                with pytest.raises(SupportError, match="lacks full support"):
                    exponent_sanov(laws, target, 1e-2)

    @pytest.mark.parametrize("kernel", ["identity", "random"])
    def test_block_laws_agree_three_ways(self, model, kernel):
        # all three routes take k = 2 laws and report the per-slot value
        if kernel == "identity":
            policy = identity_policy(model, s=1.0, k=2)
        else:
            space = policy_space(model, 1.0, 2)
            policy = space.kernel_from_params(space.random_params(np.random.default_rng(2), 1)[0])
        laws = induced_output_laws(model, policy)
        assert laws.k == 2 and len(laws.block_labels) == 4
        for target in TestTarget:
            chern = exponent_chernoff(laws, target).value
            assert abs(exponent_composite(laws, target).value - chern) <= 1e-12
            assert abs(exponent_sanov(laws, target, 5e-3).value - chern) <= 2e-3

    def test_empirical_exponent_converges(self, identity_laws):
        for target, limit in (
            (TestTarget.UTILITY, UTILITY_EXPONENT),
            (TestTarget.PRIVACY, PRIVACY_EXPONENT),
        ):
            gaps = []
            for n in (100, 200, 400, 800):
                log_alpha = exact_min_error_iid_log(identity_laws, UNIFORM, target, n)
                gaps.append(abs(-log_alpha / n - limit))
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 0.02


class TestLowerBound:
    def test_single_slot_uniform_prior(self, identity_laws):
        # 8 p_max = 2, so the bound is the minimal Chernoff value minus log 2
        bound = exponent_lower_bound(identity_laws, UNIFORM, TestTarget.UTILITY)
        assert bound == pytest.approx(UTILITY_EXPONENT - math.log(2.0), abs=1e-9)

    def test_identical_laws_vacuous_but_valid(self):
        laws = equal_laws()
        bound = exponent_lower_bound(laws, UNIFORM, TestTarget.UTILITY)
        assert bound == pytest.approx(-math.log(2.0), abs=1e-12)
        assert bound < 0.0

    def test_bound_below_exact_exponent(self, identity_laws):
        for target in TestTarget:
            for n in range(1, 13):
                alpha = exact_min_error(identity_laws, UNIFORM, target, n)
                bound = exponent_lower_bound(identity_laws, UNIFORM, target, n_blocks=n)
                assert math.log(1.0 / alpha) / n >= bound
            for n in (100, 800):
                log_alpha = exact_min_error_iid_log(identity_laws, UNIFORM, target, n)
                bound = exponent_lower_bound(identity_laws, UNIFORM, target, n_blocks=n)
                assert -log_alpha / n >= bound

    def test_zero_mass_bound_below_exact_exponent(self):
        for laws, prior in zero_mass_cases(6, 100):
            for target in TestTarget:
                for n in range(1, 9):
                    bound = exponent_lower_bound(laws, prior, target, n_blocks=n)
                    alpha = exact_min_error(laws, prior, target, n)
                    assert (math.log(1.0 / alpha) / n if alpha > 0.0 else math.inf) >= bound

    @pytest.mark.parametrize("horizons", [0, -3])
    def test_horizon_below_one_refused_by_name(self, identity_laws, horizons):
        with pytest.raises(ValidationError, match=f"got {horizons}$"):
            exponent_lower_bound(identity_laws, UNIFORM, TestTarget.UTILITY, n_blocks=horizons)

    @pytest.mark.parametrize(
        "trials, worst",
        [(3, -0.0037192507108341336), (15, -0.0036055215911788003), (50, -0.0035259667214181467)],
    )
    def test_suite_worst_slack_pinned_bit_for_bit(self, trials, worst):
        # the batched exact errors reproduce the per-call loop's bits
        assert suite_exponent_bound(seed=0, trials=trials).worst.hex() == worst.hex()

    def test_convergence_worst_gap_pinned_bit_for_bit(self):
        assert suite_convergence().worst.hex() == (0.005678243553042056).hex()

    def test_kernel_draws_do_not_depend_on_a_passed_family(self, model):
        # one family passed to every draw, as the suite does, or a fresh one each
        space = policy_space(model, 2.0, 1)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            drawn = random_kernel_laws(a, model, policy_space(model, 2.0, 1)).arrays()
            assert np.array_equal(random_kernel_laws(b, model, space).arrays(), drawn)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_suite_scores_each_rate_once(self, monkeypatch, trials):
        # each of the six pair rates of each law set is scored once, all in
        # one batch-kernel call, and both targets read from those rates
        calls = []
        original = bayes._pair_rates

        def counting(by_symbol, pairs, *args):
            calls.append((by_symbol.shape[1], len(pairs)))
            return original(by_symbol, pairs, *args)

        monkeypatch.setattr(bayes, "_pair_rates", counting)
        assert suite_exponent_bound(seed=0, trials=trials).passed
        assert calls == [(trials, 6)]


class TestLawSetRates:
    def test_tensorization_and_three_way_worst_pinned_bit_for_bit(self):
        # scoring each suite's law sets in one stack keeps the per-call bits
        assert suite_tensorization().worst.hex() == (2.220446049250313e-16).hex()
        assert suite_exponent_consistency().worst.hex() == (0.00026480009822579115).hex()

    @pytest.mark.parametrize(
        "suite, stacks",
        [
            ("lower-bound", [(3, 1)]),
            ("convergence", [(1, 1)]),
            ("exponents", [(4, 1)]),
            ("tensorize", [(3, 1), (3, 2)]),
        ],
        ids=["lower-bound", "convergence", "exponents", "tensorize"],
    )
    def test_suites_score_their_law_sets_in_one_call_per_block_length(
        self, monkeypatch, suite, stacks
    ):
        # (law sets, k) of each scorer call, whether a suite calls the
        # scorer itself or through an exponent route
        calls = []
        original = bayes._law_set_rates

        def counting(laws, k, *args, **kwargs):
            calls.append((len(laws), k))
            return original(laws, k, *args, **kwargs)

        monkeypatch.setattr(bayes, "_law_set_rates", counting)
        monkeypatch.setattr(verify, "_law_set_rates", counting)
        assert SUITES[suite](seed=0, trials=3).passed
        assert calls == stacks

    @pytest.mark.parametrize("k", [1, 2])
    def test_screen_scores_the_rest_on_the_kept_law_sets_only(self, model, monkeypatch, k):
        # the other five pairs are gathered for the kept law sets alone, so
        # a screened grid never holds six rates for the rows it drops
        space = policy_space(model, 2.0, k)
        laws = space.batch_laws(space.random_params(np.random.default_rng(k), 200))
        utility, privacy, rates, _ = _law_set_rates(laws, k)
        floor = float(np.median(utility))
        kept = rates[:, _SCREEN[0]] / k >= floor
        assert 0 < kept.sum() < len(laws)
        calls = []
        original = bayes._pair_rates

        def counting(by_symbol, pairs, *args):
            calls.append((by_symbol.shape[1], pairs.tolist()))
            return original(by_symbol, pairs, *args)

        monkeypatch.setattr(bayes, "_pair_rates", counting)
        screened = _law_set_rates(laws, k, floor)
        assert calls == [(len(laws), _SCREEN.tolist()), (int(kept.sum()), _REST.tolist())]
        assert screened[2:] == (None, None)
        assert np.array_equal(screened[0][kept], utility[kept])
        assert np.array_equal(screened[1][kept], privacy[kept])
        assert np.array_equal(screened[0][~kept], rates[~kept, _SCREEN[0]] / k)
        assert np.isinf(screened[1][~kept]).all()
