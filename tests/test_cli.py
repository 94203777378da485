"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import privtest
from privtest import bayes
from privtest.cli import _parse_lambda_grid, main
from privtest.errors import SizeCapError
from privtest.model import identity_policy, model_from_dict, policy_to_dict
from privtest.verify import SUITES

# every suite but ``monotonic`` (fixed size, about 3 s) at --trials 3
# --seed 0, one line per suite in SUITES order, as printed before the
# lower-bound suite scored its rate once per law set
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_trials3.txt"

# a model whose X alphabet holds a value that six significant digits round
MODEL_DOC = {
    "x_alphabet": [0, 0.1234567],
    "z_alphabet": [0, 1],
    "prior": [0.25, 0.25, 0.25, 0.25],
    "cond": [[0.1, 0.9], [0.25, 0.75], [0.8, 0.2], [0.9, 0.1]],
    "noise": [0.2, 0.8],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """Run the interpreter on ``argv`` in a fresh process that imports this
    package; return the completed process with text output."""
    src = str(Path(privtest.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


class TestDivergenceCommand:
    def test_kl_inline_bernoulli(self, capsys):
        code, out, _ = run(capsys, "divergence", "--kl", "bern:0.5", "bern:0.25")
        assert code == 0
        value = float(out.split("kl:")[1].strip())
        assert value == pytest.approx(0.1438410362, abs=1e-9)

    def test_chernoff_identical_pmfs(self, capsys):
        code, out, _ = run(capsys, "divergence", "--chernoff", "bern:0.4", "bern:0.4")
        assert code == 0
        assert float(out.split("chernoff:")[1].split("(")[0]) == 0.0

    def test_composite_prints_value_and_maximizer(self, capsys):
        code, out, _ = run(capsys, "divergence", "--t", "bern:0.8", "bern:0.1", "bern:0.25")
        assert code == 0
        assert "composite:" in out and "mu*" in out and "nu*" in out

    def test_pmf_files(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text(json.dumps({"labels": [0, 1], "probs": [0.25, 0.75]}))
        code, out, _ = run(capsys, "divergence", "--kl", str(p), str(q))
        assert code == 0
        assert float(out.split("kl:")[1].strip()) == pytest.approx(0.1438410362, abs=1e-9)

    def test_malformed_pmf_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "divergence", "--kl", str(bad), "bern:0.5")
        assert code == 2
        assert "error" in err

    def test_unhashable_pmf_labels_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": [[1], [2]], "probs": [0.5, 0.5]}))
        code, out, err = run(capsys, "divergence", str(bad), "bern:0.5")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed pmf file")

    def test_support_violation_exits_3(self, capsys):
        code, _, err = run(capsys, "divergence", "--kl", "bern:0.5", "bern:1.0")
        assert code == 3

    def test_third_law_above_the_first_everywhere_gives_chernoff(self, capsys, tmp_path):
        # weights may sum to 1 within 1e-12, so q3 can exceed q1 on every
        # symbol: no log(q1/q3) is positive, and the composite divergence
        # keeps the segment nu = 0, where it is C(q1, q2)
        q1, q3 = tmp_path / "q1.json", tmp_path / "q3.json"
        q1.write_text("[0.3, 0.7]")
        q3.write_text(json.dumps([0.3, 0.7 + 5e-13]))
        code, out, err = run(capsys, "divergence", "--t", str(q1), "bern:0.7", str(q3))
        assert (code, err) == (0, "")
        assert out == "composite: 0.08717669357238889  (mu* = 0.5000000000, nu* = 0.0000000000)\n"


class TestExponentCommand:
    def test_demo_identity_utility(self, capsys):
        code, out, _ = run(capsys, "exponent", "--target", "utility")
        assert code == 0
        value = float(out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(0.1809401482504862, abs=1e-9)

    def test_cross_check_agrees(self, capsys):
        code, out, _ = run(capsys, "exponent", "--target", "privacy", "--cross-check")
        assert code == 0
        assert "sanov form" in out and "cross-check delta" in out

    def test_coarse_grid_cross_check_exits_4(self, capsys):
        # a 6-point sanov grid misses the optimum by far more than 2e-3
        code, _, err = run(
            capsys, "exponent", "--target", "utility", "--cross-check",
            "--grid-step", "0.2",
        )
        assert code == 4
        assert "disagree" in err

    @pytest.mark.parametrize("step, code", [("0", 2), ("1e-9", 5)])
    def test_refused_grid_step_prints_no_result(self, capsys, step, code):
        # every route runs before anything is printed
        got, out, err = run(capsys, "exponent", "--cross-check", "--grid-step", step)
        assert (got, out) == (code, "")
        assert err.startswith("error: ")

    def test_corrupted_model_exits_2(self, capsys, tmp_path):
        doc = {
            "x_alphabet": [0, 1],
            "z_alphabet": [0, 1],
            "prior": [0.5, 0.25, 0.25, 0.25],
            "cond": [[0.1, 0.9], [0.25, 0.75], [0.8, 0.2], [0.9, 0.1]],
            "noise": [0.2, 0.8],
        }
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "exponent", "--model", str(bad))
        assert code == 2

    def test_model_rows_not_arrays_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(dict(MODEL_DOC, cond=[1, 2, 3, 4])))
        code, out, err = run(capsys, "exponent", "--model", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed model document")

    def test_block_laws_report_the_per_slot_exponent(self, capsys):
        # the identity policy's k-block laws are products of its per-slot
        # laws, and Chernoff information tensorizes over the k slots
        values = []
        for k in ("1", "2"):
            code, out, err = run(capsys, "exponent", "--k", k, "--target", "privacy")
            assert (code, err) == (0, "")
            values.append(float(out.splitlines()[0].split(":")[1]))
        assert values[1] == pytest.approx(values[0], rel=0.0, abs=1e-12)

    def test_cross_check_of_block_laws_exits_5_on_the_default_grid(self, capsys):
        # every route takes k-block laws, but the 4 block labels of k = 2 at
        # the default step 1e-3 make C(1003, 3) Sanov grid points, above the
        # cap, so the refusal comes before any output
        code, out, err = run(capsys, "exponent", "--k", "2", "--cross-check")
        assert (code, out) == (5, "")
        assert err.startswith("error: 167668501 grid points (4 symbols, step 0.001)")

    def test_cross_check_of_block_laws_agrees(self, capsys):
        code, out, err = run(
            capsys, "exponent", "--k", "2", "--cross-check", "--grid-step", "0.005"
        )
        assert (code, err) == (0, "")
        assert float(out.splitlines()[-1].split(":")[1]) <= 2e-3

    def test_block_length_above_the_cap_exits_5(self, capsys):
        code, out, err = run(capsys, "exponent", "--k", "4")
        assert (code, out) == (5, "")
        assert "block length 4 exceeds cap 3" in err

    def test_nan_supply_slack_exits_2(self, capsys):
        code, out, err = run(capsys, "exponent", "--s", "nan")
        assert (code, out) == (2, "")
        assert err == "error: supply slack s must be >= 0, got nan\n"

    def test_policy_rows_within_the_validation_slack_exit_0(self, capsys, tmp_path):
        # rows may sum to 1 within 1e-9 and no later check is stricter, so
        # the identity rows scaled by 1 + 5e-10 score the identity's exponent
        rows = [
            {"input": [[x], [z]], "output_probs": {str(x): 1.0000000005}}
            for x in (0, 1) for z in (0, 1)
        ]
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"k": 1, "s": 1.0, "rows": rows}))
        code, out, err = run(capsys, "exponent", "--policy", str(path))
        assert (code, err) == (0, "")
        value = float(out.splitlines()[0].split(":")[1])
        assert value == pytest.approx(0.1809401482504862, rel=0.0, abs=1e-12)

    def test_constant_policy_needs_the_slack_of_its_largest_net_flow(self, capsys):
        # output 1 on input x = 0, z = 1 is an average net flow of 2
        code, out, err = run(capsys, "exponent", "--s", "2", "--policy", "constant:1")
        assert (code, err) == (0, "")
        assert float(out.splitlines()[0].split(":")[1]) == 0.0  # the four laws are equal
        code, out, err = run(capsys, "exponent", "--s", "1", "--policy", "constant:1")
        assert (code, out) == (2, "")
        assert err.startswith("error: constant output (1.0,) infeasible at s=1.0")


class TestExactErrorCommand:
    def test_single_slot_hand_value(self, capsys):
        code, out, _ = run(
            capsys, "exact-error", "--target", "utility", "--n", "1",
            "--method", "enumerate",
        )
        assert code == 0
        alpha = float(out.splitlines()[0].split(":")[1])
        assert alpha == pytest.approx(0.1625, abs=1e-14)
        assert "[PASS]" in out

    def test_methods_agree(self, capsys):
        _, out_a, _ = run(
            capsys, "exact-error", "--target", "privacy", "--n", "4",
            "--method", "enumerate",
        )
        _, out_b, _ = run(
            capsys, "exact-error", "--target", "privacy", "--n", "4",
            "--method", "types",
        )
        alpha_a = float(out_a.splitlines()[0].split(":")[1])
        alpha_b = float(out_b.splitlines()[0].split(":")[1])
        assert alpha_a == pytest.approx(alpha_b, abs=1e-12)

    def test_methods_agree_on_block_laws(self, capsys):
        alphas = []
        for method in ("enumerate", "types"):
            code, out, _ = run(capsys, "exact-error", "--k", "2", "--n", "8", "--method", method)
            assert code == 0
            alphas.append(float(out.splitlines()[0].split(":")[1]))
        assert alphas[1] == pytest.approx(alphas[0], rel=0, abs=1e-12)

    def test_block_laws_that_underflow_to_zero_are_scored(self, capsys, tmp_path):
        # the k = 2 block (0, 0) of law (0, 0) has mass 1e-300 * 1e-300 / 4,
        # which underflows to 0: the bound's Chernoff rate uses the common
        # support, so the error and its bound are reported
        doc = dict(MODEL_DOC, x_alphabet=[0, 1], noise=[0.5, 0.5],
                   cond=[[1e-300, 1.0], [0.4, 0.6], [0.6, 0.4], [0.8, 0.2]])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "exact-error", "--model", str(path), "--k", "2", "--n", "8",
            "--method", "enumerate",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith("[PASS]")

    def test_types_error_above_constant_decision_exits_2(self, capsys, monkeypatch):
        # both paths check 0 <= alpha <= the best constant decision; with that
        # decision made free, the type-class path's own check must refuse
        monkeypatch.setattr(bayes, "_constant_decision_errors", lambda prior, target: (0.0, 0.0))
        code, out, err = run(
            capsys, "exact-error", "--target", "utility", "--n", "4", "--method", "types",
        )
        assert code == 2
        assert "best constant decision" in err
        assert out == ""

    def test_size_cap_exits_5(self, capsys):
        code, _, err = run(
            capsys, "exact-error", "--target", "utility", "--n", "64",
            "--method", "enumerate",
        )
        assert code == 5

    def test_cap_messages_count_blocks(self, capsys):
        # --n counts slots; at k = 2 the caps are met at n / 2 blocks
        for n, method, blocks in (("584", "types", "292"), ("24", "enumerate", "12")):
            code, out, err = run(capsys, "exact-error", "--k", "2", "--n", n, "--method", method)
            assert (code, out) == (5, "")
            assert f"({blocks} blocks on 4 labels)" in err

    def test_horizon_not_a_multiple_of_the_block_length_exits_2(self, capsys):
        code, out, err = run(capsys, "exact-error", "--k", "2", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: n=3 is not a multiple of the block length k=2\n"

    def test_block_length_above_the_cap_exits_5(self, capsys):
        # the built-in identity policy is refused before its kernel is built
        code, out, err = run(
            capsys, "exact-error", "--k", "4", "--n", "4", "--method", "enumerate",
        )
        assert (code, out) == (5, "")
        assert "block length 4 exceeds cap 3" in err


class TestPolicyFiles:
    def write(self, tmp_path, edit=None):
        doc = policy_to_dict(identity_policy(model_from_dict(MODEL_DOC), s=1.0))
        if edit:
            for row in doc["rows"]:
                row["output_probs"] = {edit(key): p for key, p in row["output_probs"].items()}
        model_path = tmp_path / "model.json"
        policy_path = tmp_path / "policy.json"
        model_path.write_text(json.dumps(MODEL_DOC))
        policy_path.write_text(json.dumps(doc))
        return str(model_path), str(policy_path)

    def test_round_tripped_policy_exits_0(self, capsys, tmp_path):
        model_path, policy_path = self.write(tmp_path)
        code, out, _ = run(
            capsys, "exact-error", "--model", model_path, "--policy", policy_path,
            "--n", "4", "--method", "enumerate",
        )
        assert code == 0
        assert "[PASS]" in out

    def test_missing_row_exits_2(self, capsys, tmp_path):
        model_path, policy_path = self.write(tmp_path)
        doc = json.loads((tmp_path / "policy.json").read_text())
        doc["rows"].pop()
        (tmp_path / "policy.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "exact-error", "--model", model_path, "--policy", policy_path,
            "--n", "4", "--method", "enumerate",
        )
        assert code == 2
        assert "policy rows do not match the model alphabets" in err

    def test_duplicate_input_pair_exits_2(self, capsys, tmp_path):
        model_path, policy_path = self.write(tmp_path)
        doc = json.loads((tmp_path / "policy.json").read_text())
        doc["rows"].append(doc["rows"][0])
        (tmp_path / "policy.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "exact-error", "--model", model_path, "--policy", policy_path,
            "--n", "4", "--method", "enumerate",
        )
        assert code == 2
        assert "policy lists input pair x=(0.0,) z=(0.0,) twice" in err

    def test_two_keys_for_one_output_block_exits_2(self, capsys, tmp_path):
        model_path, policy_path = self.write(tmp_path)
        doc = json.loads((tmp_path / "policy.json").read_text())
        doc["rows"][0]["output_probs"] = {"0": 0.5, "0.0": 0.5}
        (tmp_path / "policy.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "exact-error", "--model", model_path, "--policy", policy_path,
            "--n", "4", "--method", "enumerate",
        )
        assert code == 2
        assert "two keys name output block (0.0,)" in err

    def test_output_block_outside_alphabet_exits_2(self, capsys, tmp_path):
        model_path, policy_path = self.write(
            tmp_path, edit=lambda key: key.replace("0.1234567", "0.123457")
        )
        code, _, err = run(
            capsys, "exact-error", "--model", model_path, "--policy", policy_path,
            "--n", "4", "--method", "enumerate",
        )
        assert code == 2
        assert "X alphabet" in err

    def test_sanov_grid_cap_exits_5(self, capsys, tmp_path):
        doc = dict(
            MODEL_DOC,
            x_alphabet=[0, 1, 2, 3],
            cond=[[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [0.25] * 4, [0.1, 0.4, 0.4, 0.1]],
        )
        path = tmp_path / "model4.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "exponent", "--model", str(path), "--cross-check")
        assert code == 5
        assert "grid points" in err


class TestTradeoffCommand:
    ARGS = (
        "tradeoff", "--lambda-grid", "0:0.08:0.04", "--grid-points", "21",
        "--seed", "7",
    )

    def test_csv_svg_and_manifest(self, capsys, tmp_path):
        csv_path = tmp_path / "curve.csv"
        svg_path = tmp_path / "curve.svg"
        code, out, _ = run(
            capsys, *self.ARGS, "--out-csv", str(csv_path), "--out-svg", str(svg_path)
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda,s,k,privacy_rate,utility_rate,feasible,kernel_params"
        assert len(lines) == 1 + 3 * 2  # 3 lambdas x 2 s values
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "tradeoff"
        assert manifest["parameters"]["seed"] == 7
        assert str(csv_path) in manifest["outputs"]
        assert str(svg_path) in manifest["outputs"]
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        sa = tmp_path / "a.svg"
        sb = tmp_path / "b.svg"
        run(capsys, *self.ARGS, "--out-csv", str(a), "--out-svg", str(sa))
        run(capsys, *self.ARGS, "--out-csv", str(b), "--out-svg", str(sb))
        assert a.read_bytes() == b.read_bytes()
        assert sa.read_bytes() == sb.read_bytes()

    def test_unwritable_output_exits_6(self, capsys):
        code, _, err = run(
            capsys, *self.ARGS, "--out-csv", "/nonexistent-dir/curve.csv"
        )
        assert code == 6

    def test_oversized_grid_exits_5(self, capsys, tmp_path):
        # 200 points on each of the 3 axes of the s = 2 family: 8e6 rows
        csv_path = tmp_path / "big.csv"
        code, _, err = run(
            capsys, "tradeoff", "--s", "2", "--grid-points", "200", "--out-csv", str(csv_path)
        )
        assert code == 5
        assert "--grid-points" in err
        assert not csv_path.exists()

    def test_oversized_lambda_grid_exits_5_before_any_output(self, capsys, tmp_path):
        # 0:0.16:1e-6 would be 160,001 optimizations; the parser check comes
        # first, so a parser without the cap fails here instead of running them
        with pytest.raises(SizeCapError, match="1001 points"):
            _parse_lambda_grid("0:0.16:1e-6")
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        code, out, err = run(
            capsys, "tradeoff", "--lambda-grid", "0:0.16:1e-6",
            "--out-csv", str(csv_path), "--out-svg", str(svg_path),
        )
        assert (code, out) == (5, "")
        assert err.startswith("error: lambda grid '0:0.16:1e-6' holds more than 1001 points")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--s", ","), "--s names no values"),
            (("--s", "1", "--lambda-grid", ","), "--lambda-grid names no values"),
            (("--s", "1", "--lambda-grid", "nan"), "lambda must be >= 0, got nan"),
            (("--s", "1", "--lambda-grid", "inf"), "lambda must be finite, got inf"),
        ],
        ids=["empty-s", "empty-lambda-grid", "nan-lambda", "inf-lambda"],
    )
    def test_bad_lists_exit_2_before_any_output(self, capsys, tmp_path, argv, message):
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        code, out, err = run(
            capsys, "tradeoff", *argv, "--out-csv", str(csv_path), "--out-svg", str(svg_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_2_before_any_output(self, capsys, tmp_path):
        # the k = 1, s = 1 family (two parameters) never draws random
        # starts, so only an up-front check refuses this seed
        csv_path = tmp_path / "c.csv"
        code, out, err = run(
            capsys, "tradeoff", "--seed", "-1", "--s", "1", "--lambda-grid", "0.1",
            "--grid-points", "11", "--out-csv", str(csv_path),
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_block_length_zero_exits_2_before_any_output(self, capsys, tmp_path):
        csv_path = tmp_path / "c.csv"
        code, out, err = run(
            capsys, "tradeoff", "--k", "0", "--s", "1", "--lambda-grid", "0.1",
            "--grid-points", "11", "--out-csv", str(csv_path),
        )
        assert (code, out) == (2, "")
        assert err == "error: block length 0 must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_point_ends_the_polyline(self, capsys, tmp_path):
        # no s = 1 kernel reaches a utility rate of 0.3, so the curve over
        # 0.1, 0.15 and 0.3 is one polyline of the two feasible points
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        code, out, _ = run(
            capsys, "tradeoff", "--s", "1", "--lambda-grid", "0.1,0.15,0.3",
            "--grid-points", "11", "--out-csv", str(csv_path), "--out-svg", str(svg_path),
        )
        assert code == 0
        assert out.endswith("(1 infeasible)\n")
        polylines = re.findall(r'<polyline points="([^"]*)"', svg_path.read_text())
        assert len(polylines) == 1
        assert len(polylines[0].split()) == 2

    def test_one_lambda_beyond_float_resolution_plots(self, capsys, tmp_path):
        # 1e17 + 1.0 rounds back to 1e17, so a unit span would be empty
        csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
        code, _, _ = run(
            capsys, "tradeoff", "--lambda-grid", "1e17", "--s", "1", "--grid-points", "11",
            "--out-csv", str(csv_path), "--out-svg", str(svg_path),
        )
        assert code == 0
        svg = svg_path.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert ">1e+17</text>" in svg

    def test_comma_lambda_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "c.csv"
        code, _, _ = run(
            capsys, "tradeoff", "--lambda-grid", "0.0,0.1", "--s", "1",
            "--grid-points", "11", "--out-csv", str(csv_path),
        )
        assert code == 0
        assert len(csv_path.read_text().splitlines()) == 3


class TestVerifyCommand:
    def test_selected_suite_deterministic(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity", "--trials", "30", "--seed", "7")
        assert code == 0
        code2, out2, _ = run(capsys, "verify", "--suite", "identity", "--trials", "30", "--seed", "7")
        assert out == out2
        assert "[PASS] composite-identity" in out

    def test_monotonic_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "monotonic")
        assert code == 0
        assert out.startswith("[PASS] blocklength-monotonicity")

    def test_tensorize_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tensorize")
        assert code == 0
        assert "[PASS]" in out

    @pytest.mark.parametrize("trials", ["0", "-2"])
    @pytest.mark.parametrize("suite", ["lower-bound", "identity", "all"])
    def test_trials_below_one_exits_2(self, capsys, suite, trials):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
        assert code == 2
        assert out == ""
        assert f"trials must be >= 1, got {trials}" in err

    def test_negative_seed_exits_2_before_any_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "identity", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"

    def test_unknown_suite_exits_2_and_lists_the_suites(self):
        result = run_python("-m", "privtest", "verify", "--suite", "bogus")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: unknown suite 'bogus'; choose from {sorted(SUITES)}\n"

    def test_other_subcommands_do_not_import_the_suites(self):
        result = run_python(
            "-c", "import sys, privtest.cli; print('privtest.verify' in sys.modules)"
        )
        assert (result.returncode, result.stdout) == (0, "False\n")

    def test_output_matches_golden_lines(self, capsys):
        lines = []
        for suite in SUITES:
            if suite == "monotonic":
                continue
            code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "3", "--seed", "0")
            assert code == 0
            lines += out.splitlines()
        assert lines == VERIFY_GOLDEN.read_text().splitlines()
