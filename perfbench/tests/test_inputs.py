import json
from pathlib import Path

import privtest
from privtest.model import model_from_dict

import inputs
import run
from workloads import WORKLOADS


def test_seed_zero_is_the_demo_model():
    generated = model_from_dict(inputs.binary_model(0))
    demo = privtest.demo_model()
    for field in ("x_alphabet", "z_alphabet", "prior", "cond", "noise"):
        assert getattr(generated, field) == getattr(demo, field)


def test_generators_are_deterministic_per_seed():
    for make in (inputs.binary_model, inputs.four_symbol_model):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_generated_models_load_and_keep_the_curve_feasible():
    for seed in range(1, 6):
        doc = inputs.binary_model(seed)
        model_from_dict(doc)
        assert inputs.utility_exponent(doc) >= inputs.MIN_UTILITY_EXPONENT
        m4 = model_from_dict(inputs.four_symbol_model(seed))
        assert len(m4.x_alphabet) == 4 and len(m4.z_alphabet) == 2


def test_workloads_match_benchmark_json():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
