import json
from pathlib import Path

import pytest

import run
import spans
from spans import Span


def tree():
    # a [0, 10]
    #   b [1, 4]
    #     c [2, 3]
    #   b [3.5, 6]   (overlaps the first b: coverage is a union, not a sum)
    #   d [8, 9]
    # e [11, 12]
    return [
        Span("x.a", 0.0, 10.0, -1),
        Span("x.b", 1.0, 4.0, 0, counters={"rows": 3}),
        Span("y.c", 2.0, 3.0, 1),
        Span("x.b", 3.5, 6.0, 0, counters={"rows": 4}),
        Span("y.d", 8.0, 9.0, 0, raised=True),
        Span("x.e", 11.0, 12.0, -1),
    ]


def test_covered_is_union_length():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 1), (2, 3)]) == 2.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.covered([(0, 5), (1, 2)]) == 5.0


def test_self_times_subtract_child_coverage():
    assert spans.self_times(tree()) == pytest.approx([10 - 6, 3 - 1, 1, 2.5, 1, 1])


def test_aggregate_counts_outermost_same_name_once():
    nested = [Span("x.f", 0.0, 4.0, -1), Span("x.f", 1.0, 2.0, 0)]
    agg = spans.aggregate(nested)
    assert agg["x.f"]["calls"] == 2
    assert agg["x.f"]["s"] == pytest.approx(4.0)
    assert agg["x.f"]["self_s"] == pytest.approx(3.0 + 1.0)
    b = spans.aggregate(tree())["x.b"]
    assert (b["calls"], b["rows"]) == (2, 7)
    assert b["s"] == pytest.approx(3.0 + 2.5)


def test_recorder_nests_and_flags_exceptions():
    rec = spans.Recorder()
    rec.enabled = True

    def boom():
        raise ValueError("x")

    def outer():
        rec.call("m.inner", lambda: 1, None, (), {})
        with pytest.raises(ValueError):
            rec.call("m.boom", boom, None, (), {})

    rec.call("m.outer", outer, None, (), {})
    assert [(s.name, s.parent, s.raised) for s in rec.spans] == [
        ("m.outer", -1, False), ("m.inner", 0, False), ("m.boom", 0, True)]
    rec.enabled = False
    assert rec.call("m.off", lambda: 2, None, (), {}) == 2
    assert len(rec.spans) == 3


def test_layer_metrics_match_benchmark_json():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    produced = set(spans.layer_metrics(tree(), 12.0)) | {"trace.overhead_frac"}
    assert produced == set(declared)
    assert all(run.per_layer_unit(name) == unit for name, unit in declared.items())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
