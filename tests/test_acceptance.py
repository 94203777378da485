"""Acceptance criteria, one test per criterion, plus pinned search outputs.

Each test enforces its stated tolerance and runtime budget and prints a
single pass line (visible with ``pytest -s`` or in captured output).  Run
the whole gate with::

    pytest tests/test_acceptance.py -v
"""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from privtest import (
    GuaranteeConfig,
    SearchConfig,
    TestTarget,
    asymptotic_guarantee,
    blockwise_extend,
    demo_model,
    exponent_chernoff,
    guarantee_check,
    induced_output_laws,
    monotonicity_check,
    tradeoff_sweep,
    validate_policy,
)
from privtest.cli import _write_csv, main as cli_main
from privtest.optimizer import MONOTONICITY_SLACK
from privtest.verify import (
    suite_convergence,
    suite_exponent_consistency,
    suite_composite_identity,
    suite_primal_dual,
    suite_exponent_bound,
)

SEED = 0

# criterion 6's and criterion 8's curves and a k = 2 curve, pinned: a change
# to the search that moves any of their points fails the test
PINNED_C6_CSV = Path(__file__).parent / "data" / "criterion6.csv"
PINNED_CSV = Path(__file__).parent / "data" / "criterion8.csv"
PINNED_K2_CSV = Path(__file__).parent / "data" / "tradeoff_k2.csv"
# a sweep at lambda 0.1 and 0.3 (above every kernel's utility) on a grid
# screened against 0.1, pinned from the unscreened scan
PINNED_SCREENED_CSV = Path(__file__).parent / "data" / "tradeoff_screened.csv"
# the block-length drivers' outputs: criterion 7's two optima and extension
# rate, and asymptotic_guarantee up to k = 2
PINNED_DRIVERS = json.loads(
    (Path(__file__).parent / "data" / "blocklength_drivers.json").read_text()
)


def assert_matches_pinned(csv_text: str, pinned_path: Path):
    """Same points as the pinned curve: rates within 1e-13, kernel_params within
    1e-9 (a near-tie flip moves them by far more), so other BLAS builds pass."""
    rows = list(csv.DictReader(csv_text.splitlines()))
    pinned = list(csv.DictReader(pinned_path.read_text().splitlines()))
    assert len(rows) == len(pinned)
    for row, pin in zip(rows, pinned):
        assert (row["lambda"], row["s"], row["k"]) == (pin["lambda"], pin["s"], pin["k"])
        assert row["feasible"] == pin["feasible"]
        for rate in ("privacy_rate", "utility_rate"):
            assert float(row[rate]) == pytest.approx(float(pin[rate]), rel=0, abs=1e-13)
        params = [float(v) for v in row["kernel_params"].split(";")]
        pinned_params = [float(v) for v in pin["kernel_params"].split(";")]
        assert params == pytest.approx(pinned_params, rel=0, abs=1e-9)


def assert_point_pinned(point, pin: dict):
    """The pinned optimum, at the tolerances of :func:`assert_matches_pinned`."""
    assert (point.k, point.feasible) == (pin["k"], pin["feasible"])
    for rate in ("privacy_rate", "utility_rate"):
        assert getattr(point, rate) == pytest.approx(pin[rate], rel=0, abs=1e-13)
    assert list(point.params) == pytest.approx(pin["params"], rel=0, abs=1e-9)


def report(number: int, result_line: str, elapsed: float, budget: float):
    print(f"criterion {number}: {result_line}  [{elapsed:.1f}s / {budget:.0f}s budget]")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def check_suite(number: int, result, tolerance: float, elapsed: float, budget: float):
    # the suites hold their own tolerances; pinning them here keeps any
    # bound from loosening unseen
    report(number, result.line(), elapsed, budget)
    assert result.tolerance == tolerance
    assert result.passed, result.line()


def test_criterion_1_composite_identity():
    t0 = time.time()
    result = suite_composite_identity(seed=SEED, trials=200)
    check_suite(1, result, 1e-6, time.time() - t0, budget=10.0)


def test_criterion_2_primal_dual_agreement():
    t0 = time.time()
    result = suite_primal_dual(seed=SEED, trials=50)
    check_suite(2, result, 1e-3, time.time() - t0, budget=30.0)


def test_criterion_3_three_way_exponents():
    t0 = time.time()
    result = suite_exponent_consistency(seed=SEED, trials=20)
    check_suite(3, result, 2e-3, time.time() - t0, budget=60.0)


def test_criterion_4_exponent_convergence():
    t0 = time.time()
    result = suite_convergence()
    check_suite(4, result, 0.02, time.time() - t0, budget=20.0)


def test_criterion_5_lower_bound_sweep():
    t0 = time.time()
    result = suite_exponent_bound(seed=SEED, trials=50)
    check_suite(5, result, 0.0, time.time() - t0, budget=60.0)


def test_criterion_6_tradeoff_curve_reproduction(tmp_path):
    t0 = time.time()
    model = demo_model()
    lambdas = [round(0.01 * i, 10) for i in range(17)]
    points = tradeoff_sweep(
        model,
        lambdas,
        [1.0, 2.0],
        GuaranteeConfig(lam=0.0, include_correction=False),
        SearchConfig(grid_points_per_parameter=101, seed=SEED),
    )
    elapsed = time.time() - t0

    # (a) every point feasible
    assert all(p.feasible for p in points)
    s1 = [p.privacy_rate for p in points if p.s == 1.0]
    s2 = [p.privacy_rate for p in points if p.s == 2.0]
    assert len(s1) == len(s2) == len(lambdas)
    # (b) monotone nondecreasing within solver tolerance
    assert all(b >= a - 1e-4 for a, b in zip(s1, s1[1:]))
    assert all(b >= a - 1e-4 for a, b in zip(s2, s2[1:]))
    # (c) larger supply slack never hurts privacy (1e-9 float slack)
    assert all(b <= a + 1e-9 for a, b in zip(s1, s2))
    # (d) no convexity assertion: the curve need not be convex or concave
    out = tmp_path / "criterion6.csv"
    _write_csv(str(out), points)
    assert_matches_pinned(out.read_text(), PINNED_C6_CSV)
    report(
        6,
        f"[PASS] tradeoff-curve: {len(points)} points feasible, monotone, "
        f"s2<=s1 (max privacy {max(s1):.6f})",
        elapsed,
        budget=120.0,
    )


def test_criterion_7_blocklength_monotonicity():
    t0 = time.time()
    model = demo_model()
    cfg = GuaranteeConfig(lam=0.1, k=1, s=1.0, include_correction=False)
    rep = monotonicity_check(model, cfg, l=2, search=SearchConfig(seed=SEED))
    assert MONOTONICITY_SLACK == 1e-3
    assert rep.holds, (rep.point_k.privacy_rate, rep.point_n.privacy_rate)

    # the extension of the k=1 optimum must be feasible at n=2 with the
    # identical rate, independently re-verified
    extended = blockwise_extend(rep.point_k.kernel, 2)
    assert validate_policy(extended).ok
    laws = induced_output_laws(model, extended)
    cfg_n = GuaranteeConfig(lam=0.1, k=2, s=1.0, include_correction=False)
    assert guarantee_check(laws, cfg_n, model.prior).passed
    privacy = exponent_chernoff(laws, TestTarget.PRIVACY).value
    assert privacy == pytest.approx(rep.point_k.privacy_rate, abs=1e-9)
    pinned = PINNED_DRIVERS["criterion7"]
    assert_point_pinned(rep.point_k, pinned["point_k"])
    assert_point_pinned(rep.point_n, pinned["point_n"])
    assert rep.extended_rate == pytest.approx(pinned["extended_rate"], rel=0, abs=1e-13)
    elapsed = time.time() - t0
    report(
        7,
        f"[PASS] monotonicity: opt_k={rep.point_k.privacy_rate:.6f} >= "
        f"opt_n={rep.point_n.privacy_rate:.6f} - 1e-3; extension feasible",
        elapsed,
        budget=120.0,
    )


def test_criterion_8_deterministic_csv(tmp_path, capsys):
    t0 = time.time()
    args = [
        "tradeoff", "--lambda-grid", "0:0.16:0.04", "--s", "1,2",
        "--grid-points", "21", "--seed", "123",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out-csv", str(a)]) == 0
    assert cli_main(args + ["--out-csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert_matches_pinned(a.read_text(), PINNED_CSV)
    elapsed = time.time() - t0
    report(8, "[PASS] determinism: identical seeds give byte-identical CSV, "
           "matching the pinned curve", elapsed, budget=120.0)


def test_curves_monotone_by_construction():
    # each search is warm-started from the best point it admits for free (a
    # larger lambda, a smaller s, a divisor of k), so these orderings hold up
    # to the tie band and re-verification rounding, whatever the seed
    model = demo_model()
    lambdas = [0.02, 0.05, 0.1, 0.14]
    k1 = tradeoff_sweep(model, lambdas, [1.0, 2.0], search=SearchConfig(seed=SEED))
    s1 = [p.privacy_rate for p in k1 if p.s == 1.0]
    s2 = [p.privacy_rate for p in k1 if p.s == 2.0]
    assert all(b <= a + 1e-12 for a, b in zip(s1, s2))
    curves = [s1, s2]
    for seed in range(5):
        search = SearchConfig(restarts=1, seed=seed)
        k2 = tradeoff_sweep(model, lambdas, [1.0], GuaranteeConfig(lam=0.0, k=2), search)
        curves.append([p.privacy_rate for p in k2])
        assert all(b <= a + 1e-12 for a, b in zip(s1, curves[-1])), (seed, s1, curves[-1])
        rep = monotonicity_check(model, GuaranteeConfig(lam=0.1), l=2, search=search)
        assert rep.point_n.privacy_rate <= rep.extended_rate + 1e-12
    for curve in curves:
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:])), curve


def test_pinned_k2_search_curve(tmp_path, capsys):
    # the lockstep multistart pattern search at k = 2 (34 free parameters)
    out = tmp_path / "k2.csv"
    args = [
        "tradeoff", "--k", "2", "--lambda-grid", "0.05,0.1", "--s", "1",
        "--restarts", "4", "--seed", "0", "--out-csv", str(out),
    ]
    assert cli_main(args) == 0
    capsys.readouterr()
    assert_matches_pinned(out.read_text(), PINNED_K2_CSV)


def test_pinned_asymptotic_guarantee():
    # k = 2 is warm-started with the extension of the k = 1 optimum
    best = asymptotic_guarantee(
        demo_model(), GuaranteeConfig(lam=0.1, s=1.0), k_max=2, search=SearchConfig(restarts=4)
    )
    assert_point_pinned(best, PINNED_DRIVERS["asymptotic_k_max2"])


def test_pinned_screened_grid_curve(tmp_path, capsys):
    # the grid is screened against lambda 0.1; lambda 0.3 alone screens it
    # against 0.3, which no kernel reaches, so its grid is scored again whole
    args = ["tradeoff", "--s", "1,2", "--grid-points", "41", "--seed", "0"]
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert cli_main(args + ["--lambda-grid", "0.1,0.3", "--out-csv", str(both)]) == 0
    assert cli_main(args + ["--lambda-grid", "0.3", "--out-csv", str(alone)]) == 0
    capsys.readouterr()
    assert both.read_bytes() == PINNED_SCREENED_CSV.read_bytes()
    header, *rows = both.read_text().splitlines()
    assert [header] + [row for row in rows if row.startswith("0.3,")] == (
        alone.read_text().splitlines()
    )
