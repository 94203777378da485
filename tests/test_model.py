"""Tests for alphabets, policies, induced laws, and block extension."""

import functools
import json
import math
import operator
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privtest import (
    Alphabet,
    demo_model,
    AlphabetError,
    FeasibilityError,
    Pmf,
    PolicyKernel,
    Prior,
    SourceModel,
    SizeCapError,
    TestTarget,
    ValidationError,
    blockwise_extend,
    constant_policy,
    exponent_chernoff,
    identity_policy,
    induced_output_laws,
    policy_space,
    product_laws,
    source_laws,
    validate_policy,
)
from privtest.model import (
    UP_PAIRS,
    _supply_net,
    _within_supply,
    load_policy,
    model_from_dict,
    policy_from_dict,
    policy_to_dict,
)

from model_strategies import small_models


def make_model(thetas=(0.1, 0.25, 0.8, 0.9), z0=0.2):
    x_alpha = Alphabet((0.0, 1.0))
    z_alpha = Alphabet((0.0, 1.0))
    cond = {
        up: Pmf(labels=x_alpha.values, probs=(t, 1.0 - t))
        for up, t in zip(UP_PAIRS, thetas)
    }
    noise = Pmf(labels=z_alpha.values, probs=(z0, 1.0 - z0))
    return SourceModel(
        x_alphabet=x_alpha, z_alphabet=z_alpha, prior=Prior.uniform(), cond=cond, noise=noise
    )


class TestTypes:
    def test_alphabet_must_increase(self):
        with pytest.raises(ValidationError):
            Alphabet((1.0, 0.0))

    def test_prior_validation(self):
        with pytest.raises(ValidationError):
            Prior((0.3, 0.3, 0.3, 0.3))
        assert Prior.uniform().p_max == 0.25
        assert Prior((0.7, 0.1, 0.1, 0.1)).p_max == 0.7

    def test_prior_is_checked_as_a_pmf_on_the_four_pairs(self):
        for joint, message in (
            ((0.5, 0.5, 0.0), "4 labels but 3 weights"),
            ((0.5, 0.5, math.nan, 0.0), "is nan, expected >= 0"),
            ((0.5, 0.6, -0.1, 0.0), "is -0.1, expected >= 0"),
            ((0.5, 0.5, 0.5, 0.0), "weights sum to 1.5"),
        ):
            with pytest.raises(ValidationError, match=re.escape(message)):
                Prior(joint)
        assert Prior((0.7, 0.1, 0.1, 0.1)).joint == (0.7, 0.1, 0.1, 0.1)

    def test_kernel_refuses_a_block_length_above_the_cap_and_a_nan_slack(self, model):
        # both rules come before the matrix shape is checked
        alphabets = (model.x_alphabet, model.z_alphabet)
        with pytest.raises(SizeCapError, match="block length 4 exceeds cap 3"):
            PolicyKernel(*alphabets, 4, 1.0, np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="supply slack s must be >= 0, got nan"):
            PolicyKernel(*alphabets, 1, math.nan, np.zeros((4, 2)))

    def test_demo_model_parameters(self, model):
        assert model.prior.p_max == 0.25
        assert model.cond[(0, 0)].prob(0.0) == 0.1
        assert model.cond[(0, 1)].prob(0.0) == 0.25
        assert model.cond[(1, 0)].prob(0.0) == 0.8
        assert model.cond[(1, 1)].prob(0.0) == 0.9
        assert model.noise.prob(0.0) == 0.2

    def test_cond_must_have_full_support(self):
        with pytest.raises(Exception):
            make_model(thetas=(0.0, 0.25, 0.8, 0.9))


class TestFeasibleOutputs:
    """Rows of the supply mask; a row is (x-block, z-block), x-blocks outer."""

    def test_single_slot_forced(self, model):
        # x = 1, z = 0 leaves only y = 1
        assert policy_space(model, s=1.0, k=1).feasible[2].tolist() == [False, True]

    def test_single_slot_both(self, model):
        # x = 0, z = 1 at s = 2 admits both outputs
        assert policy_space(model, s=2.0, k=1).feasible[1].tolist() == [True, True]

    def test_two_slot_average(self, model):
        # x = (1, 1), z = (0, 0): of the 4 candidate blocks the average
        # constraint leaves only (1, 1)
        feasible = policy_space(model, s=1.0, k=2).feasible
        assert feasible[3 * 4 + 0].tolist() == [False, False, False, True]

    def test_may_be_empty(self):
        # x = 0, z = 5 overshoots s = 0.5 whatever the output
        alphabets = SimpleNamespace(x_alphabet=Alphabet((0.0, 1.0)), z_alphabet=Alphabet((5.0,)))
        assert not _within_supply(_supply_net(alphabets, 1), 0.5)[0].any()


class TestInducedLaws:
    def test_identity_gives_product_extension(self, model):
        for k in (1, 2):
            laws = induced_output_laws(model, identity_policy(model, s=1.0, k=k))
            expected = source_laws(model, k=k)
            for up in UP_PAIRS:
                np.testing.assert_allclose(
                    laws.laws[up].probs, expected.laws[up].probs, atol=1e-12
                )

    def test_rows_within_the_validation_slack_are_accepted(self, model):
        # validate_policy (rows sum to 1 within 1e-9) is the only
        # normalization rule; each induced law is divided by its total
        kernel = identity_policy(model, s=1.0)
        scaled = PolicyKernel(
            model.x_alphabet, model.z_alphabet, 1, 1.0, kernel.matrix * (1.0 + 5e-10)
        )
        laws = induced_output_laws(model, scaled)
        for up in UP_PAIRS:
            assert math.fsum(laws.laws[up].probs) == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_constant_policy_equalizes_laws(self, model):
        laws = induced_output_laws(model, constant_policy(model, s=2.0, y_value=1.0))
        for up in UP_PAIRS:
            assert laws.laws[up].prob((1.0,)) == pytest.approx(1.0, abs=1e-12)
        assert exponent_chernoff(laws, TestTarget.PRIVACY).value == 0.0

    def test_constant_zero_infeasible_at_s2(self, model):
        # y=0 cannot cover x=1 with z=0
        with pytest.raises(FeasibilityError):
            constant_policy(model, s=2.0, y_value=0.0)

    def test_identity_needs_noise_within_slack(self, model):
        # identity is feasible only when every noise value fits in [0, s]
        with pytest.raises(FeasibilityError):
            identity_policy(model, s=0.5)

    def test_hand_expansion_oracle(self, model):
        # s=1 family: rows (1,0)->1 and (0,1)->0 are forced; with
        # a = q(0|0,0) and b = q(0|1,1),
        #   law(y=0 | u,p) = p(0|u,p) (0.2 a + 0.8) + p(1|u,p) 0.8 b
        rng = np.random.default_rng(31)
        space = policy_space(model, s=1.0, k=1)
        for _ in range(5):
            a, b = rng.uniform(size=2)
            kernel = space.kernel_from_params(np.array([a, b]))
            laws = induced_output_laws(model, kernel)
            for up in UP_PAIRS:
                p0 = model.cond[up].prob(0.0)
                expected = p0 * (0.2 * a + 0.8) + (1.0 - p0) * 0.8 * b
                assert laws.laws[up].prob((0.0,)) == pytest.approx(expected, abs=1e-12)

    def test_mixing_kernels_mixes_laws(self, model):
        # laws are linear in the row stack
        rng = np.random.default_rng(37)
        space = policy_space(model, s=2.0, k=1)
        pa = rng.uniform(size=space.dim)
        pb = rng.uniform(size=space.dim)
        tau = 0.3
        la = induced_output_laws(model, space.kernel_from_params(pa))
        lb = induced_output_laws(model, space.kernel_from_params(pb))
        lmix = induced_output_laws(
            model, space.kernel_from_params(tau * pa + (1 - tau) * pb)
        )
        for up in UP_PAIRS:
            mixed = tau * np.array(la.laws[up].probs) + (1 - tau) * np.array(lb.laws[up].probs)
            np.testing.assert_allclose(lmix.laws[up].probs, mixed, atol=1e-12)

    def test_missing_rows_rejected(self, model):
        doc = {"k": 1, "s": 1.0, "rows": [{"input": [[0.0], [0.0]], "output_probs": {"0.0": 1.0}}]}
        with pytest.raises(AlphabetError, match=re.escape("missing e.g. [((0.0,), (1.0,))")):
            policy_from_dict(doc, model)

    def test_duplicate_input_pair_rejected(self, model):
        doc = policy_to_dict(identity_policy(model, s=1.0))
        doc["rows"].append(doc["rows"][0])
        with pytest.raises(AlphabetError, match=re.escape("x=(0.0,) z=(0.0,) twice")):
            policy_from_dict(doc, model)

    def test_two_keys_for_one_output_block_rejected(self, model):
        doc = policy_to_dict(identity_policy(model, s=1.0))
        doc["rows"][0]["output_probs"] = {"0": 0.5, "0.0": 0.5}
        with pytest.raises(AlphabetError, match=re.escape("two keys name output block (0.0,)")):
            policy_from_dict(doc, model)


class TestValidatePolicy:
    def test_identity_with_zero_noise_valid(self):
        x_alpha = Alphabet((0.0, 1.0))
        z_alpha = Alphabet((0.0,))
        cond = {
            up: Pmf(labels=x_alpha.values, probs=(t, 1.0 - t))
            for up, t in zip(UP_PAIRS, (0.1, 0.25, 0.8, 0.9))
        }
        model = SourceModel(
            x_alphabet=x_alpha,
            z_alphabet=z_alpha,
            prior=Prior.uniform(),
            cond=cond,
            noise=Pmf(labels=(0.0,), probs=(1.0,)),
        )
        assert validate_policy(identity_policy(model, s=0.0)).ok

    def test_infeasible_mass_reported_with_triple(self, model):
        kernel = identity_policy(model, s=1.0)
        matrix = kernel.matrix.copy()
        # put half the mass of row (x=1, z=0) on the infeasible output y=0;
        # rows are (x, z) pairs with x outer, columns the outputs y = 0, 1
        matrix[2] = (0.5, 0.5)
        report = validate_policy(
            PolicyKernel(model.x_alphabet, model.z_alphabet, k=1, s=1.0, matrix=matrix)
        )
        assert not report.ok
        assert len(report.violations) == 1
        assert "x=(1.0,)" in report.violations[0]
        assert "z=(0.0,)" in report.violations[0]
        assert "(0.0,)" in report.violations[0]

    def test_bad_normalization_reported(self, model):
        kernel = identity_policy(model, s=1.0)
        matrix = kernel.matrix.copy()
        matrix[0] = (0.98, 0.0)  # row x=0, z=0
        report = validate_policy(
            PolicyKernel(model.x_alphabet, model.z_alphabet, k=1, s=1.0, matrix=matrix)
        )
        assert any("sum to 0.98" in v for v in report.violations)


class TestBlockwiseExtend:
    def test_l1_is_identity(self, model):
        kernel = identity_policy(model, s=1.0)
        assert blockwise_extend(kernel, 1) is kernel

    def test_sixteen_rows_and_product_laws(self, model):
        space = policy_space(model, s=1.0, k=1)
        kernel = space.kernel_from_params(np.array([0.35, 0.6]))
        extended = blockwise_extend(kernel, 2)
        assert extended.k == 2
        assert extended.matrix.shape == (16, 4)
        laws = induced_output_laws(model, kernel)
        ext_laws = induced_output_laws(model, extended)
        expected = product_laws(laws, 2)
        assert ext_laws.block_labels == expected.block_labels
        for up in UP_PAIRS:
            np.testing.assert_allclose(
                ext_laws.laws[up].probs, expected.laws[up].probs, atol=1e-14
            )

    def test_chernoff_rate_preserved(self, model):
        # Chernoff information adds over independent blocks, so the
        # per-slot rate of the extension matches the base kernel
        space = policy_space(model, s=2.0, k=1)
        kernel = space.kernel_from_params(np.array([0.2, 0.7, 0.4]))
        laws = induced_output_laws(model, kernel)
        ext_laws = induced_output_laws(model, blockwise_extend(kernel, 2))
        assert exponent_chernoff(ext_laws, TestTarget.PRIVACY).value == pytest.approx(
            exponent_chernoff(laws, TestTarget.PRIVACY).value, abs=1e-9
        )

    def test_extension_passes_validation(self, model):
        kernel = identity_policy(model, s=1.0)
        assert validate_policy(blockwise_extend(kernel, 3)).ok


class TestPolicySpace:
    def test_free_dimensions(self, model):
        assert policy_space(model, s=1.0, k=1).dim == 2
        assert policy_space(model, s=2.0, k=1).dim == 3

    def test_forced_rows(self, model):
        # rows (x, z) = (0, 0), (0, 1), (1, 0), (1, 1); columns y = 0, 1
        space = policy_space(model, s=1.0, k=1)
        assert space.feasible.tolist() == [
            [True, True], [True, False], [False, True], [True, True]
        ]
        assert [idx for idx, _, _ in space.free_slices] == [0, 3]

    def test_empty_feasible_set_rejected(self):
        x_alpha = Alphabet((0.0, 1.0))
        z_alpha = Alphabet((5.0,))
        cond = {
            up: Pmf(labels=x_alpha.values, probs=(t, 1.0 - t))
            for up, t in zip(UP_PAIRS, (0.1, 0.25, 0.8, 0.9))
        }
        model = SourceModel(
            x_alphabet=x_alpha,
            z_alphabet=z_alpha,
            prior=Prior.uniform(),
            cond=cond,
            noise=Pmf(labels=(5.0,), probs=(1.0,)),
        )
        with pytest.raises(FeasibilityError, match="z=\\(5.0,\\)"):
            policy_space(model, s=0.0, k=1)

    def test_nan_supply_slack_rejected(self, model):
        # NaN fails every supply test, so without the slack rule each row
        # would read as infeasible
        with pytest.raises(ValidationError, match="supply slack s must be >= 0, got nan"):
            policy_space(model, float("nan"))

    def test_params_roundtrip(self, model):
        space = policy_space(model, s=2.0, k=1)
        params = np.array([0.3, 0.55, 0.2])
        kernel = space.kernel_from_params(params)
        np.testing.assert_allclose(space.params_from_kernel(kernel), params, atol=1e-15)

    def test_batch_laws_match_induced(self, model):
        rng = np.random.default_rng(41)
        space = policy_space(model, s=2.0, k=1)
        batch = rng.uniform(size=(8, space.dim))
        laws_batch = space.batch_laws(batch)
        for g in range(8):
            laws = induced_output_laws(model, space.kernel_from_params(batch[g]))
            np.testing.assert_allclose(laws_batch[g], laws.arrays(), atol=1e-12)


class TestJsonInterfaces:
    def test_model_roundtrip(self, tmp_path, model):
        doc = {
            "x_alphabet": [0, 1],
            "z_alphabet": [0, 1],
            "prior": [0.25, 0.25, 0.25, 0.25],
            "cond": [[0.1, 0.9], [0.25, 0.75], [0.8, 0.2], [0.9, 0.1]],
            "noise": [0.2, 0.8],
        }
        parsed = model_from_dict(doc)
        for up in UP_PAIRS:
            assert parsed.cond[up].probs == model.cond[up].probs

    def test_model_bad_prior_rejected(self):
        doc = {
            "x_alphabet": [0, 1],
            "z_alphabet": [0, 1],
            "prior": [0.5, 0.25, 0.25, 0.25],
            "cond": [[0.1, 0.9], [0.25, 0.75], [0.8, 0.2], [0.9, 0.1]],
            "noise": [0.2, 0.8],
        }
        with pytest.raises(ValidationError):
            model_from_dict(doc)

    def test_policy_roundtrip(self, tmp_path, model):
        space = policy_space(model, s=1.0, k=1)
        kernel = space.kernel_from_params(np.array([0.25, 0.75]))
        doc = policy_to_dict(kernel)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        loaded = load_policy(path, model)
        assert loaded.k == kernel.k and loaded.s == kernel.s
        np.testing.assert_array_equal(loaded.matrix, kernel.matrix)


def _model_on(x_values, z_values):
    x_alpha, z_alpha = Alphabet(x_values), Alphabet(z_values)
    cond = {
        up: Pmf.from_weights(x_alpha.values, np.arange(len(x_values)) + 1.0 + i)
        for i, up in enumerate(UP_PAIRS)
    }
    noise = Pmf.uniform(z_alpha.values)
    return SourceModel(
        x_alphabet=x_alpha, z_alphabet=z_alpha, prior=Prior.uniform(), cond=cond, noise=noise
    )


@settings(max_examples=25)
@given(small_models(), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_blockwise_extension_tensorizes(drawn, l, seed):
    # the laws of the extended kernel are the l-fold products of the base
    # laws, so the per-slot Chernoff rates are unchanged
    model, s = drawn
    space = policy_space(model, s=s, k=1)
    kernel = space.kernel_from_params(space.random_params(np.random.default_rng(seed), 1)[0])
    laws = induced_output_laws(model, kernel)
    ext_laws = induced_output_laws(model, blockwise_extend(kernel, l))
    expected = product_laws(laws, l)
    assert ext_laws.block_labels == expected.block_labels
    np.testing.assert_allclose(ext_laws.arrays(), expected.arrays(), rtol=0.0, atol=1e-15)
    for target in TestTarget:
        rate = exponent_chernoff(laws, target).value
        assert exponent_chernoff(ext_laws, target).value == pytest.approx(rate, abs=1e-9)


@settings(max_examples=25)
@given(small_models(x_values=(-1e6, 1e6)), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
@example((_model_on((-3.5, 0.1234567, 1e6), (0.0, 0.1234567)), 1.0), 1, 0)
@example((_model_on((-3.5, 0.1234567, 1e6), (0.0, 0.1234567)), 1.0), 2, 1)
def test_policy_json_roundtrip_is_bit_exact(drawn, k, seed):
    model, s = drawn
    space = policy_space(model, s=s, k=k)
    kernel = space.kernel_from_params(space.random_params(np.random.default_rng(seed), 1)[0])
    loaded = policy_from_dict(json.loads(json.dumps(policy_to_dict(kernel))), model)
    assert (loaded.k, loaded.s) == (kernel.k, kernel.s)
    assert loaded.matrix.tobytes() == kernel.matrix.tobytes()


def _params_feasible_per_slice(space, params):
    """The box check plus one sum per free slice: the reference mask."""
    ok = np.all((params >= -1e-12) & (params <= 1.0 + 1e-12), axis=1)
    for _, start, stop in space.free_slices:
        ok &= params[:, start:stop].sum(axis=1) <= 1.0 + 1e-12
    return ok


@settings(max_examples=30)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 2.0]), st.integers(0, 2**32 - 1))
@example(3, 1.0, 0)
def test_params_feasible_matches_the_per_slice_loop(k, s, seed):
    """Demo families at k = 1..3 (free slices of 1 to 7 parameters); each
    slice of each row is drawn uniform, summing to exactly 1.0, summing to
    within 1e-14 of the bound 1 + 1e-12 or to the bound itself, or nudged
    below 0."""
    space = policy_space(demo_model(), s=s, k=k)
    rng = np.random.default_rng(seed)
    rows = 64
    params = space.random_params(rng, rows)
    bound = 1.0 + 1e-12
    for _, start, stop in space.free_slices:
        n = stop - start
        for row, kind in enumerate(rng.integers(0, 5, size=rows)):
            if kind == 1:  # dyadic masses, so every partial sum is exact
                params[row, start:stop] = rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0
            elif kind == 2:
                w = rng.dirichlet(np.ones(n))
                params[row, start:stop] = w * (bound + rng.uniform(-1e-14, 1e-14)) / w.sum()
            elif kind == 3:
                params[row, start + rng.integers(n)] = -rng.uniform(0.0, 2e-12)
            elif kind == 4:  # (bound - 0.5) + 0.5 is the bound exactly
                params[row, start:stop] = 0.0
                params[row, start] = bound - 0.5 if n > 1 else bound
                params[row, stop - 1] += 0.5 if n > 1 else 0.0
    assert np.array_equal(space.params_feasible(params), _params_feasible_per_slice(space, params))


@pytest.mark.parametrize("k", [2, 3])
def test_a_kernel_does_not_depend_on_its_batch(model, k):
    """Each row's laws are the same bits alone as inside a batch of 64, and
    its parameters come back exactly from its kernel."""
    space = policy_space(model, s=1.0, k=k)
    params = space.random_params(np.random.default_rng(k), 64)
    laws = space.batch_laws(params)
    for i, x in enumerate(params):
        assert space.batch_laws(x)[0].tobytes() == laws[i].tobytes()
        assert space.params_from_kernel(space.kernel_from_params(x)).tobytes() == x.tobytes()


def test_k4_space_is_small(monkeypatch):
    """The k = 4 family (dim 3,242) is index arrays over a 256 x 16 kernel."""
    monkeypatch.setattr("privtest.model.DEFAULT_BLOCK_CAP", 4)
    tracemalloc.start()
    try:
        space = policy_space(demo_model(), 1.0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 3242
    assert peak < 8 * 2**20
    x = space.random_params(np.random.default_rng(4), 1)[0]
    assert space.params_from_kernel(space.kernel_from_params(x)).tobytes() == x.tobytes()


def test_long_slices_are_summed_first_to_last():
    """A 3-symbol X alphabet at k = 2, s = 2 has slices of 8 parameters, the
    length from which numpy's own row sum stops adding first to last.  The
    feasibility mask and each free row's last kernel entry use the same
    first-to-last sum."""
    space = policy_space(_model_on((0.0, 1.0, 2.0), (0.0, 1.0)), s=2.0, k=2)
    start, stop = next((a, b) for _, a, b in space.free_slices if b - a >= 8)
    bound = 1.0 + 1e-12
    params = space.random_params(np.random.default_rng(0), 8)
    # a head at the bound, then terms below half its ulp: added first to
    # last each rounds away, summed apart first they carry it past the bound
    params[:4, start:stop] = 0.4 * np.spacing(bound)
    params[:4, start] = bound
    matrices = space._matrices(params)
    ok = space.params_feasible(params)
    assert ok[:4].all()
    for g, x in enumerate(params):
        expected = bool(np.all((x >= -1e-12) & (x <= bound)))
        for row, a, b in space.free_slices:
            total = functools.reduce(operator.add, x[a:b].tolist())
            expected &= total <= bound
            last = np.flatnonzero(space.feasible[row])[-1]
            assert matrices[g, row, last] == max(1.0 - total, 0.0)
        assert ok[g] == expected
