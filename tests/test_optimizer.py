"""Tests for the guarantee check and the constrained policy search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from privtest import (
    Alphabet,
    GuaranteeConfig,
    PolicyKernel,
    Prior,
    SearchConfig,
    SourceModel,
    TestTarget,
    asymptotic_guarantee,
    bayes,
    constant_policy,
    exact_min_error,
    exact_min_error_iid_log,
    exponent_chernoff,
    guarantee_check,
    induced_output_laws,
    monotonicity_check,
    optimize_policy,
    optimizer,
    policy_space,
    source_laws,
    tradeoff_sweep,
    validate_policy,
)
from privtest.errors import EnumerationCapError, SizeCapError, ValidationError
from privtest.model import UP_PAIRS, OutputLaws
from privtest.optimizer import (
    GRID_DIM_LIMIT,
    _best,
    _evaluate,
    _local_refine,
    _pattern_directions,
    _probe_laws,
    _probe_params,
    _probe_sources,
    _probes,
    grid_evaluation,
)
from privtest.model import model_from_dict
from privtest.probkit import Pmf

from model_strategies import small_models

UNIFORM = Prior.uniform()

# small search settings: plenty for the 2- and 3-parameter demo families
FAST = SearchConfig(grid_points_per_parameter=41, restarts=4, seed=0)


def equal_laws():
    pmf = Pmf(labels=((0.0,), (1.0,)), probs=(0.35, 0.65))
    return OutputLaws(k=1, laws={up: pmf for up in UP_PAIRS})


def test_negative_search_seed_refused():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        SearchConfig(seed=-1)


def test_config_refuses_a_block_length_above_the_cap_and_a_nan_slack():
    # the config runs the model's block-length and supply-slack rules
    with pytest.raises(SizeCapError, match="block length 4 exceeds cap 3"):
        GuaranteeConfig(lam=0.1, k=4)
    with pytest.raises(ValidationError, match="block length 0 must be >= 1"):
        GuaranteeConfig(lam=0.1, k=0)
    with pytest.raises(ValidationError, match="supply slack s must be >= 0, got nan"):
        GuaranteeConfig(lam=0.1, s=math.nan)


class TestGuaranteeCheck:
    def test_identical_laws_pass_without_correction(self):
        cfg = GuaranteeConfig(lam=0.0, k=1, s=1.0, include_correction=False)
        result = guarantee_check(equal_laws(), cfg, UNIFORM)
        assert result.passed and result.margin == pytest.approx(0.0, abs=1e-12)

    def test_identical_laws_fail_with_correction(self):
        # uniform prior at k=1: threshold picks up log(8/4) = log 2
        cfg = GuaranteeConfig(lam=0.0, k=1, s=1.0, include_correction=True)
        result = guarantee_check(equal_laws(), cfg, UNIFORM)
        assert not result.passed
        assert result.margin == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_demo_identity_clears_point_one(self, model, identity_laws):
        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        result = guarantee_check(identity_laws, cfg, model.prior)
        assert result.passed
        assert result.utility_rate == pytest.approx(
            exponent_chernoff(identity_laws, TestTarget.UTILITY).value, abs=1e-9
        )


class TestPrivacyObjective:
    def test_identical_laws_zero(self):
        assert exponent_chernoff(equal_laws(), TestTarget.PRIVACY).value == 0.0

    def test_constant_kernel_zero(self, model):
        laws = induced_output_laws(model, constant_policy(model, s=2.0, y_value=1.0))
        assert exponent_chernoff(laws, TestTarget.PRIVACY).value == 0.0

    def test_demo_identity_value(self, identity_laws):
        assert exponent_chernoff(identity_laws, TestTarget.PRIVACY).value == pytest.approx(
            0.0101245165799592, abs=1e-9
        )

    def test_one_disjoint_pair_does_not_make_the_rate_infinite(self):
        # law(0,1) and law(0,0) have disjoint supports, but law(1,1) = law(1,0)
        # keeps the privacy error at 1/4 for every horizon: the exponent is 0
        labels = ((0.0,), (1.0,))
        laws = OutputLaws(k=1, laws={
            (0, 1): Pmf(labels=labels, probs=(1.0, 0.0)),
            (0, 0): Pmf(labels=labels, probs=(0.0, 1.0)),
            (1, 1): Pmf(labels=labels, probs=(0.5, 0.5)),
            (1, 0): Pmf(labels=labels, probs=(0.5, 0.5)),
        })
        for n in (1, 4, 10):
            assert exact_min_error(laws, UNIFORM, TestTarget.PRIVACY, n) == pytest.approx(
                0.25, abs=1e-12
            )
        assert exponent_chernoff(laws, TestTarget.PRIVACY).value == 0.0

    @settings(max_examples=30)
    @given(small_models(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
    def test_data_processing_never_helps_the_adversary(self, drawn, k, seed):
        # any k-slot kernel weakly reduces both composite rates below the source
        model, s = drawn
        space = policy_space(model, s=s, k=k)
        source = source_laws(model, k=k)
        for params in space.random_params(np.random.default_rng(seed), 5):
            laws = induced_output_laws(model, space.kernel_from_params(params))
            for target in TestTarget:
                rate = exponent_chernoff(laws, target).value
                assert rate <= exponent_chernoff(source, target).value + 1e-10


class TestOptimizePolicy:
    def test_infeasible_lambda_flagged(self, model, identity_laws):
        # nothing can beat the source utility rate, so lambda above it
        # leaves the guarantee set empty
        lam = exponent_chernoff(identity_laws, TestTarget.UTILITY).value + 0.02
        point = optimize_policy(model, GuaranteeConfig(lam=lam, k=1, s=1.0), FAST)
        assert not point.feasible
        assert point.utility_rate < lam

    def test_lambda_zero_s2_reaches_perfect_privacy(self, model):
        point = optimize_policy(model, GuaranteeConfig(lam=0.0, k=1, s=2.0), FAST)
        assert point.feasible
        assert point.privacy_rate == 0.0

    def test_lambda_zero_s1_swap_kernel(self, model):
        # at s=1 the laws can still be equalized: send (0,0) to 1 and
        # (1,1) to 0, collapsing every law to Bernoulli(0.8) on y=0... y=1
        point = optimize_policy(model, GuaranteeConfig(lam=0.0, k=1, s=1.0), FAST)
        assert point.feasible
        assert point.privacy_rate == 0.0
        assert point.params == (0.0, 1.0)

    def test_demo_feasible_at_point_sixteen(self, model):
        point = optimize_policy(model, GuaranteeConfig(lam=0.16, k=1, s=1.0), FAST)
        assert point.feasible
        assert point.utility_rate >= 0.16 - 1e-9

    def test_returned_point_is_self_consistent(self, model):
        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        point = optimize_policy(model, cfg, FAST)
        assert validate_policy(point.kernel).ok
        laws = induced_output_laws(model, point.kernel)
        privacy = exponent_chernoff(laws, TestTarget.PRIVACY).value
        assert privacy == pytest.approx(point.privacy_rate, abs=1e-10)
        check = guarantee_check(laws, cfg, model.prior)
        assert check.passed
        assert check.utility_rate == pytest.approx(point.utility_rate, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_reverify_scores_the_six_pairs_once(self, model, monkeypatch, k):
        # both rates come from one kernel call over the six unordered pairs,
        # with the bits of the exponent route
        space = policy_space(model, 2.0, k)
        kernel = space.kernel_from_params(space.random_params(np.random.default_rng(k), 1)[0])
        cfg = GuaranteeConfig(lam=0.05, k=k, s=2.0)
        columns = []
        original = bayes.chernoff_symbol_major

        def counting(first, second, *args):
            columns.append(first.shape[1])
            return original(first, second, *args)

        monkeypatch.setattr(bayes, "chernoff_symbol_major", counting)
        privacy, check = optimizer._reverify(model, cfg, kernel)
        assert columns == [6]
        laws = induced_output_laws(model, kernel)
        assert privacy == exponent_chernoff(laws, TestTarget.PRIVACY).value
        assert check == guarantee_check(laws, cfg, model.prior)

    def test_finite_horizon_exponents_track_the_point(self, model):
        # tie the asymptotic claims to exact n=800 type-class errors for the
        # block-wise i.i.d. policy built from the returned kernel
        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        point = optimize_policy(model, cfg, FAST)
        laws = induced_output_laws(model, point.kernel)
        e_priv = -exact_min_error_iid_log(laws, model.prior, TestTarget.PRIVACY, 800) / 800
        e_util = -exact_min_error_iid_log(laws, model.prior, TestTarget.UTILITY, 800) / 800
        assert abs(e_priv - point.privacy_rate) <= 0.02
        assert e_util >= cfg.lam - 0.02


def forced_model():
    """One-point Z: at s = 0 every row has the identity output as its only
    feasible one (no parameters); at k = 1 and s = 1 the row x = 0 has two
    (one parameter)."""
    x_alpha, z_alpha = Alphabet((0.0, 1.0)), Alphabet((0.0,))
    rows = ((0.3, 0.7), (0.6, 0.4), (0.2, 0.8), (0.9, 0.1))
    return SourceModel(
        x_alphabet=x_alpha,
        z_alphabet=z_alpha,
        prior=UNIFORM,
        cond={up: Pmf(labels=x_alpha.values, probs=r) for up, r in zip(UP_PAIRS, rows)},
        noise=Pmf(labels=(0.0,), probs=(1.0,)),
    )


class TestZeroParameterFamily:
    @pytest.fixture(scope="class")
    def forced(self):
        return forced_model()

    def test_optimize_returns_the_only_kernel(self, forced):
        assert policy_space(forced, s=0.0, k=1).dim == 0
        point = optimize_policy(forced, GuaranteeConfig(lam=0.0, k=1, s=0.0))
        assert point.params == ()
        assert point.feasible
        assert point.privacy_rate == 0.04771162891391715

    def test_sweep_flags_the_floor(self, forced):
        points = tradeoff_sweep(forced, [0.0, 0.1], [0.0])
        assert [p.feasible for p in points] == [True, False]
        assert [p.privacy_rate for p in points] == [0.04771162891391715] * 2


class TestTieRule:
    def test_near_tie_goes_to_smallest_params(self, model):
        # privacy values 1e-16 apart sit on a flat face of the optimum: the
        # lexicographically smallest parameters must win, not the last bit
        from privtest.optimizer import _FamilyEval

        ev = _FamilyEval(
            params=np.array([[0.5, 0.0], [0.25, 1.0], [0.25, 0.5]]),
            utility=np.array([0.2, 0.2, 0.2]),
            privacy=np.array([0.1, 0.1 + 1e-16, 0.1 + 1e-14]),
        )
        choice = _best(ev, threshold=0.1)
        assert ev.utility[choice] >= 0.1
        assert ev.params[choice].tolist() == [0.25, 1.0]
        assert ev.privacy[choice] == 0.1 + 1e-16


class TestSweep:
    def test_deterministic_given_seed(self, model):
        lambdas = [0.0, 0.05, 0.1]
        a = tradeoff_sweep(model, lambdas, [1.0], GuaranteeConfig(lam=0.0), FAST)
        b = tradeoff_sweep(model, lambdas, [1.0], GuaranteeConfig(lam=0.0), FAST)
        for pa, pb in zip(a, b):
            assert pa.params == pb.params
            assert pa.privacy_rate == pb.privacy_rate
            assert pa.utility_rate == pb.utility_rate

    def test_emission_order_and_flags(self, model):
        lambdas = [0.0, 0.3]  # the second is infeasible
        points = tradeoff_sweep(model, lambdas, [1.0, 2.0], GuaranteeConfig(lam=0.0), FAST)
        assert [(p.s, p.lam) for p in points] == [
            (1.0, 0.0), (1.0, 0.3), (2.0, 0.0), (2.0, 0.3)
        ]
        assert [p.feasible for p in points] == [True, False, True, False]

    def test_monotone_and_ordered_curves(self, model):
        lambdas = [0.0, 0.04, 0.08, 0.12, 0.16]
        points = tradeoff_sweep(model, lambdas, [1.0, 2.0], GuaranteeConfig(lam=0.0), FAST)
        s1 = [p.privacy_rate for p in points if p.s == 1.0]
        s2 = [p.privacy_rate for p in points if p.s == 2.0]
        assert all(b >= a - 1e-9 for a, b in zip(s1, s1[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(s2, s2[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(s1, s2))

    def test_one_family_grid_held_at_a_time(self, model):
        # the s = 2 and s = 3 families both have 61^3 grids; holding the first
        # while the second is built would raise the peak by about 70%
        search = SearchConfig(grid_points_per_parameter=61)

        def peak(s_values):
            tracemalloc.start()
            try:
                tradeoff_sweep(model, [0.1], s_values, search=search)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak([2.0, 3.0]) <= 1.5 * peak([2.0])


class TestGridCap:
    def test_oversized_grid_refused_before_it_is_built(self, model):
        # 10^4 points on each of 3 axes is 10^12 rows, far past the cap
        space = policy_space(model, s=2.0, k=1)
        assert space.dim == 3
        with pytest.raises(EnumerationCapError, match="--grid-points"):
            grid_evaluation(space, SearchConfig(grid_points_per_parameter=10**4))

    def test_grid_laws_are_scored_in_chunks(self, model):
        # the laws and kernel matrices of 61^3 rows take about 7x the grid's
        # own bytes when built at once, and a simplex check of the whole grid
        # (it pads a copy) 3.5x; chunked checks and scoring stay near 2.4x
        space = policy_space(model, s=2.0, k=1)
        search = SearchConfig(grid_points_per_parameter=61)
        grid_bytes = 61**space.dim * space.dim * 8
        tracemalloc.start()
        try:
            ev = grid_evaluation(space, search)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ev.params) == 61**space.dim
        assert peak < 3 * grid_bytes


# lambda 1.0 is beyond every kernel's utility rate, so no start is feasible
@settings(max_examples=6)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.sampled_from([0.05, 0.1, 1.0]),
    st.sampled_from([5, 40]),
)
# a converged start keeps halving its step after a fresh one made its 5 moves
@example(seed=0, count=1, lam=0.1, max_moves=5)
def test_lockstep_refine_equals_one_start_at_a_time(model, seed, count, lam, max_moves):
    space = policy_space(model, s=1.0, k=2)
    rng = np.random.default_rng(seed)
    drawn = space.random_params(rng, count)
    boundary = drawn[0] * (rng.random(space.dim) < 0.5)  # some params exactly 0
    args = (0.25, 1e-5, _pattern_directions(space.dim), max_moves)
    converged = _local_refine(space, lam, drawn[:1], *args[:-1]).params
    starts = np.vstack([drawn, drawn[:1], boundary, converged])  # one duplicate

    def result(ev, i):  # (params, privacy, utility, feasible), compared bit for bit
        return ev.params[i].tolist(), ev.privacy[i], ev.utility[i], ev.utility[i] >= lam

    stacked = _local_refine(space, lam, starts, *args)
    for i, start in enumerate(starts):
        assert result(stacked, i) == result(_local_refine(space, lam, start[None, :], *args), 0)


def law_space_starts(space, rng):
    """Drawn starts, one with some parameters exactly 0 and one with every
    slice summing to 1 exactly (its last entries at 0)."""
    drawn = space.random_params(rng, 2)
    at_bound = np.zeros(space.dim)
    for _, start, stop in space.free_slices:
        at_bound[start] = 0.25 if stop - start > 1 else 1.0
        at_bound[start + 1 : stop] = 0.75 / max(stop - start - 1, 1)
    # 0.75 / n sums to 0.75 exactly for n = 1, 2, 3, 6 (the slice lengths here)
    assert all(sum(at_bound[start:stop].tolist()) == 1.0 for _, start, stop in space.free_slices)
    return np.vstack([drawn, drawn[0] * (rng.random(space.dim) < 0.5), at_bound])


def probe_directions(space, rng):
    """The pattern directions plus, where they have no diagonals, 20 drawn
    ones, some within one slice."""
    columns, signs = _pattern_directions(space.dim)
    if space.dim > GRID_DIM_LIMIT:
        first = rng.integers(0, space.dim, 20)
        second = np.where(rng.random(20) < 0.5, first + 1, rng.integers(0, space.dim, 20))
        second = np.where(second == first, -1, second % space.dim)
        extra = np.stack([first, second], axis=1)
        columns = np.vstack([columns, extra])
        signs = np.vstack([signs, rng.choice([-1.0, 1.0], size=(20, 2)) * (extra >= 0)])
    return columns, signs


# the steps clip probes at 0 and 1, move a little, and move within, just
# past and well past the 1e-12 band of a slice's sum bound
STEPS = (1.0, 0.25, 2.0**-20, 1e-13, 5e-13, 2e-12)

# X = {0, 1, 2} with one noise value: at s = 2 and k = 1 the row x = 0 has a
# slice of two parameters and x = 1 one of one (dim 3), so the pattern
# directions' own diagonals move two parameters of one slice
THREE_SYMBOLS = {
    "x_alphabet": [0, 1, 2],
    "z_alphabet": [0],
    "prior": [0.25, 0.25, 0.25, 0.25],
    "cond": [[0.1, 0.2, 0.7], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [0.7, 0.2, 0.1]],
    "noise": [1.0],
}


@pytest.mark.parametrize(
    "s, k, three_symbols",
    [(s, k, False) for s in (1.0, 2.0) for k in (1, 2, 3)] + [(2.0, 1, True)],
    ids=[f"{s}-{k}" for s in (1.0, 2.0) for k in (1, 2, 3)] + ["three-symbols-2.0-1"],
)
def test_law_space_probes_equal_their_batch_laws(model, s, k, three_symbols):
    if three_symbols:
        model = model_from_dict(THREE_SYMBOLS)
    space = policy_space(model, s, k)
    rng = np.random.default_rng(10 * k + int(s))
    x = law_space_starts(space, rng)
    columns, signs = probe_directions(space, rng)
    if three_symbols:  # the diagonals of columns 0 and 1 stay in one slice
        assert space.param_slices.tolist() == [0, 0, 1]
    laws, sources = space.batch_laws(x), _probe_sources(space, columns)
    for step in STEPS:
        steps = np.full(len(x), step)
        value, move, kept = _probes(x, steps, columns, signs, sources)
        a, d = np.indices(kept.shape).reshape(2, -1)
        params = _probe_params(x[a], columns[d], value[a, d])
        np.testing.assert_array_equal(kept.ravel(), space.params_feasible(params))
        a, d = np.nonzero(kept)
        params = _probe_params(x[a], columns[d], value[a, d])
        got = _probe_laws(space, laws[a], columns[d], move[a, d])
        # a probe past the sum bound, within the band, has its kernel's
        # last entry clipped at 0: that moves at most its overshoot
        sums = space._slice_sums(np.pad(params, ((0, 0), (0, 1))))
        overshoot = np.maximum(sums.max(axis=1, initial=1.0) - 1.0, 0.0)
        assert np.all(np.abs(got - space.batch_laws(params)) <= 1e-15 + overshoot[:, None, None])
        assert np.all(got >= 0.0)


def test_three_symbol_sweep_is_pinned():
    # the s = 2 sweep, at the tolerances of the acceptance tests' pins
    points = tradeoff_sweep(model_from_dict(THREE_SYMBOLS), [0.05, 0.1], [2.0])
    pins = [
        (True, 0.008689693110496168, 0.05000000000342463,
         (0.14684080481529235, 0.8231591951847076, 1.0)),
        (False, 0.022276370819966074, 0.06993381542837664, (1.0, 0.0, 1.0)),
    ]
    for point, (feasible, privacy, utility, params) in zip(points, pins, strict=True):
        assert point.feasible == feasible
        assert point.privacy_rate == pytest.approx(privacy, rel=0, abs=1e-13)
        assert point.utility_rate == pytest.approx(utility, rel=0, abs=1e-13)
        assert list(point.params) == pytest.approx(params, rel=0, abs=1e-9)


def test_warm_start_just_outside_the_simplex_is_scaled_back(model, monkeypatch):
    # validate_policy lets a row sum to 1 + 5e-10; its slice then sums past the
    # simplex's 1 + 1e-12, and the search starts from it scaled back to 1
    space = policy_space(model, 1.0, 2)
    x = space.random_params(np.random.default_rng(3), 1)[0]
    row, start, stop = next(sl for sl in space.free_slices if sl[2] - sl[1] >= 2)
    x[start:stop] = 0.0
    x[start] = 1.0
    matrix = space.kernel_from_params(x).matrix.copy()
    matrix[row, np.flatnonzero(matrix[row])] = 1.0 + 5e-10
    outside = PolicyKernel(model.x_alphabet, model.z_alphabet, 2, 1.0, matrix)
    assert validate_policy(outside).ok
    assert not space.params_feasible(space.params_from_kernel(outside))[0]
    starts = []
    refine = optimizer._local_refine
    monkeypatch.setattr(
        optimizer, "_local_refine", lambda *args: starts.append(args[2]) or refine(*args)
    )
    point = optimize_policy(
        model, GuaranteeConfig(lam=0.05, k=2, s=1.0), SearchConfig(restarts=1), [outside]
    )
    # (1 + 5e-10) / (1 + 5e-10) is 1 exactly: the start is x itself
    assert starts[0][0].tobytes() == x.tobytes()
    assert point.feasible and validate_policy(point.kernel).ok
    laws = induced_output_laws(model, point.kernel)
    assert point.privacy_rate == exponent_chernoff(laws, TestTarget.PRIVACY).value
    matrix[row, np.flatnonzero(matrix[row])] = -1.0
    invalid = PolicyKernel(model.x_alphabet, model.z_alphabet, 2, 1.0, matrix)
    with pytest.raises(ValidationError, match="warm start violates its invariants"):
        optimize_policy(model, GuaranteeConfig(lam=0.05, k=2, s=1.0), FAST, [invalid])


def test_law_space_one_parameter_family():
    space = policy_space(forced_model(), 1.0, 1)
    assert space.dim == 1
    x = np.array([[0.0], [0.3], [1.0]])
    columns, signs = _pattern_directions(1)
    for step in (0.5, 1.0):
        value, move, kept = _probes(
            x, np.full(3, step), columns[:, :1], signs[:, :1],
            _probe_sources(space, columns[:, :1]),
        )
        assert kept.all()  # clipped at 0 and 1
        a, d = np.nonzero(kept)
        params = _probe_params(x[a], columns[d, :1], value[a, d])
        got = _probe_laws(space, space.batch_laws(x)[a], columns[d, :1], move[a, d])
        assert np.all(np.abs(got - space.batch_laws(params)) <= 1e-15)


def test_zero_parameter_family_refines_to_its_starts():
    space = policy_space(forced_model(), 0.0, 1)
    assert space.dim == 0 and space.law_map.shape == (0, 4, 2)
    assert space._slice_sums(np.zeros((2, 1))).shape == (2, 0)
    refined = _local_refine(space, 0.1, np.zeros((2, 0)), 0.25, 1e-5, _pattern_directions(0))
    expected = _evaluate(space, np.zeros((2, 0)))
    assert refined.params.shape == (2, 0)
    assert refined.utility.tolist() == expected.utility.tolist()
    assert refined.privacy.tolist() == expected.privacy.tolist()


def assert_screen_keeps_winner(space, whole, floor):
    # _best on the grid screened against floor, bit for bit as on the
    # whole grid: at the floor, between it and the best utility, and above
    # every utility (the least-violation winner)
    screened = grid_evaluation(space, SearchConfig(grid_points_per_parameter=21), floor)
    best = whole.utility.max()
    thresholds = [floor, max(best, floor) + 0.01]
    if best > floor:
        thresholds.append(floor + 0.5 * (best - floor))
    for t in thresholds:
        mine, theirs = _best(screened, t), _best(whole, t)
        assert screened.params[mine].tolist() == whole.params[theirs].tolist()
        assert (screened.privacy[mine], screened.utility[mine]) == (
            whole.privacy[theirs], whole.utility[theirs]
        )


@settings(max_examples=20, deadline=None)
@given(small_models().filter(lambda drawn: drawn[1] in (1.0, 2.0)), st.data())
def test_screened_grid_picks_the_unscreened_winner(drawn, data):
    model, s = drawn
    space = policy_space(model, s, 1)
    assume(1 <= space.dim <= GRID_DIM_LIMIT)
    whole = grid_evaluation(space, SearchConfig(grid_points_per_parameter=21))
    # a floor anywhere in (0, 0.2] mostly lies above every row's utility, so
    # the grid is scored again whole; one at a row's own utility screens it
    floors = st.floats(0.0, 0.2, exclude_min=True)
    levels = np.unique(whole.utility[(whole.utility > 0.0) & (whole.utility <= 0.2)])
    if levels.size:
        floors |= st.integers(0, levels.size - 1).map(lambda i: float(levels[i]))
    assert_screen_keeps_winner(space, whole, data.draw(floors, label="floor"))


# the demo model's kernels reach utility 0.181 at most: floor 0.1 screens
# both grids, floor 0.2 makes the s = 2 grid fall back to the whole one
@pytest.mark.parametrize("s, floor", [(1.0, 0.1), (2.0, 0.1), (2.0, 0.2)])
def test_screened_demo_grid_picks_the_unscreened_winner(model, s, floor):
    space = policy_space(model, s, 1)
    assert_screen_keeps_winner(
        space, grid_evaluation(space, SearchConfig(grid_points_per_parameter=21)), floor
    )


@settings(max_examples=30)
@given(small_models(), st.floats(0.0, 0.05))
def test_sweep_point_equals_direct_search(drawn, lam):
    # the sweep shares one grid evaluation across lambda; the point must be
    # bit for bit the one a direct search finds
    model, s = drawn
    search = SearchConfig(grid_points_per_parameter=21, restarts=2, seed=0)
    swept = tradeoff_sweep(model, [lam], [s], search=search)[0]
    direct = optimize_policy(model, GuaranteeConfig(lam=lam, k=1, s=s), search)
    assert swept.params == direct.params
    assert swept.privacy_rate == direct.privacy_rate
    assert swept.utility_rate == direct.utility_rate
    assert swept.feasible == direct.feasible


class TestMonotonicityCheck:
    def test_l_one_is_equality(self, model):
        from privtest import monotonicity_check

        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        rep = monotonicity_check(model, cfg, l=1, search=FAST)
        assert rep.point_n.privacy_rate == rep.point_k.privacy_rate
        assert rep.extended_rate == pytest.approx(rep.point_k.privacy_rate, abs=1e-12)
        assert rep.holds and rep.extended_feasible


@pytest.mark.parametrize(
    "drive, error",
    [
        (lambda m: asymptotic_guarantee(m, GuaranteeConfig(lam=0.1), k_max=4), SizeCapError),
        (lambda m: monotonicity_check(m, GuaranteeConfig(lam=0.1, k=2), l=2), SizeCapError),
        (lambda m: monotonicity_check(m, GuaranteeConfig(lam=0.1), l=0), ValidationError),
    ],
    ids=["k_max-above-cap", "k-times-l-above-cap", "l-below-one"],
)
def test_drivers_refuse_bad_block_lengths_before_searching(model, monkeypatch, drive, error):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing the block length")

    monkeypatch.setattr(optimizer, "optimize_policy", no_search)
    with pytest.raises(error):
        drive(model)


class TestAsymptoticGuarantee:
    def test_kmax_one_reduces_to_single_optimization(self, model):
        from privtest import asymptotic_guarantee

        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        best = asymptotic_guarantee(model, cfg, k_max=1, search=FAST)
        single = optimize_policy(model, cfg, FAST)
        assert best.privacy_rate == single.privacy_rate
        assert best.k == 1

    def test_nonincreasing_in_kmax(self, model):
        from privtest import asymptotic_guarantee

        cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0)
        fast = SearchConfig(grid_points_per_parameter=41, restarts=2, seed=1)
        best1 = asymptotic_guarantee(model, cfg, k_max=1, search=fast)
        best2 = asymptotic_guarantee(model, cfg, k_max=2, search=fast)
        assert best2.privacy_rate <= best1.privacy_rate + 1e-12
