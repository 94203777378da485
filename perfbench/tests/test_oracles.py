import math

import numpy as np
import pytest

import privtest
from privtest.model import model_from_dict
from privtest.probkit import chernoff_from_probs

import inputs
import oracles
from workloads import run_cli


def failed(ops):
    return [name for name, errors in ops if errors]


def test_chernoff_oracle_matches_privtest():
    rng = np.random.default_rng(0)
    for size in (2, 3, 4):
        for _ in range(20):
            p, q = rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))
            assert oracles.chernoff(p, q) == pytest.approx(chernoff_from_probs(p, q)[0], abs=1e-10)
    assert oracles.chernoff([1.0, 0.0], [0.0, 1.0]) == math.inf
    assert oracles.chernoff([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_type_class_oracle_matches_enumeration():
    doc = inputs.four_symbol_model(3)
    model = model_from_dict(doc)
    laws = privtest.source_laws(model)
    for target in privtest.TestTarget:
        alpha = privtest.exact_min_error(laws, model.prior, target, 5)
        assert oracles.log_alpha_types(doc, target.value, 5) == pytest.approx(
            math.log(alpha), rel=1e-12)


@pytest.fixture(scope="module")
def small_curve(tmp_path_factory):
    work = tmp_path_factory.mktemp("curve")
    doc = inputs.binary_model(1)
    model = inputs.write_model(doc, work / "model.json")
    csv = work / "curve.csv"
    out = run_cli(["tradeoff", "--model", str(model), "--s", "1,2", "--lambda-grid", "0,0.08",
                   "--grid-points", "11", "--out-csv", str(csv)])
    return doc, dict(out, csv=csv.read_text())


def check_curve(doc, out):
    return oracles.check_tradeoff(doc, (0.0, 0.08), (1.0, 2.0), 6, out)


def test_tradeoff_oracle_accepts_a_real_curve(small_curve):
    doc, out = small_curve
    assert failed(check_curve(doc, out)) == []


def test_tradeoff_oracle_rejects_a_perturbed_rate(small_curve):
    doc, out = small_curve
    lines = out["csv"].splitlines()
    fields = lines[2].split(",")  # lambda=0.08, s=1
    fields[3] = repr(float(fields[3]) + 1e-3)
    lines[2] = ",".join(fields)
    bad = dict(out, csv="\n".join(lines) + "\n")
    assert failed(check_curve(doc, bad)) == ["point(lam=0.08,s=1)"]


def test_tradeoff_oracle_rejects_a_failed_cli(small_curve):
    doc, out = small_curve
    assert len(failed(check_curve(doc, dict(out, exit=1)))) == 4


def test_blocklength_oracle():
    doc = inputs.binary_model(0)
    model = model_from_dict(doc)
    ref = privtest.tradeoff_sweep(model, [0.1], [1.0], privtest.GuaranteeConfig(lam=0.0))[0]
    good = {
        "point_k": {"privacy": ref.privacy_rate, "utility": ref.utility_rate, "feasible": True},
        "point_n": {"privacy": ref.privacy_rate - 1e-3, "utility": 0.1, "feasible": True},
        "extended_rate": ref.privacy_rate, "extended_feasible": True, "holds": True,
    }

    def check(out):
        return failed(oracles.check_blocklength(doc, 0.1, 1.0, ref.privacy_rate, 51, out))

    assert check(good) == []
    worse_k = dict(good, point_k=dict(good["point_k"], privacy=ref.privacy_rate + 1e-3))
    assert check(worse_k) == ["optimize(k=1)"]
    worse_n = dict(good, point_n=dict(good["point_n"], privacy=ref.privacy_rate + 1e-3))
    assert check(worse_n) == ["optimize(k=2)"]
    assert check({"error": "ValueError: x"}) == ["optimize(k=1)", "optimize(k=2)"]


def test_suite_oracle():
    ok = {"exit": 0, "stdout": "[PASS] composite-identity: ...\n", "error": None}
    assert failed(oracles.check_suites({"identity": ok})) == []
    assert failed(oracles.check_suites({"identity": dict(ok, exit=1)})) == ["verify:identity"]
    bad = dict(ok, stdout="[FAIL] composite-identity: ...\n")
    assert failed(oracles.check_suites({"identity": bad})) == ["verify:identity"]


def test_exact_oracle(tmp_path):
    doc = inputs.four_symbol_model(2)
    model = inputs.write_model(doc, tmp_path / "m4.json")
    out = run_cli(["exact-error", "--model", str(model), "--target", "privacy", "--n", "12"])
    call = {"doc": doc, "target": "privacy", "n": 12, "out": out, "short": (0.25, 0.25)}
    assert failed(oracles.check_exact([call])) == []

    # a wrong log(alpha): the printed exponent moves by 1e-6 relative
    line = next(x for x in out["stdout"].splitlines() if x.startswith("(1/n)"))
    value = float(line.split(": ")[1])
    wrong = out["stdout"].replace(line, f"(1/n) log(1/alpha): {value * (1 + 1e-6)!r}")
    assert len(failed(oracles.check_exact([dict(call, out=dict(out, stdout=wrong))]))) == 1
    assert len(failed(oracles.check_exact([dict(call, out=dict(out, exit=1))]))) == 1
    assert len(failed(oracles.check_exact([dict(call, short=(0.25, 0.2500001))]))) == 1
