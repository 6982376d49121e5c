"""Tests of the benchmark's own helpers: python -m pytest bench -q"""

import json
import random
import types

import pytest

import harness as h
import run


def test_nearest_rank_picks_an_existing_sample():
    values = list(range(1, 101))
    assert h.nearest_rank(values, 0.5) == 50
    assert h.nearest_rank(values, 0.9) == 90
    assert h.nearest_rank(values, 1.0) == 100
    assert h.nearest_rank([7.0], 0.99) == 7.0


def test_tail_leaves_ten_samples_beyond_it():
    assert h.tail_quantile(100) == pytest.approx(0.9)
    for min_samples in (11, 24, 63, 100, 126):
        q = h.tail_quantile(min_samples)
        for n in range(min_samples, 3 * min_samples + 1):
            values = list(range(n))
            tail = h.nearest_rank(values, q)
            assert sum(v > tail for v in values) >= h.TAIL_BEYOND
        exact = list(range(min_samples))
        assert sum(v > h.nearest_rank(exact, q) for v in exact) == h.TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        h.tail_quantile(10)
    with pytest.raises(ValueError):
        h.latency_summary(list(range(20)), 30)


def test_latency_summary():
    assert h.latency_summary([float(x) for x in range(1, 101)], 100) == (50.0, 90.0)


def test_median():
    assert h.median([3, 1, 2]) == 2
    assert h.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        h.median([])


def test_seeded_order_keeps_the_multiset():
    ops = list(run.CATALOG)
    first = h.permuted(ops, random.Random(7))
    again = h.permuted(ops, random.Random(7))
    other = h.permuted(ops, random.Random(8))
    assert first == again
    assert first != other
    assert sorted(first) == sorted(other) == sorted(ops)
    assert ops == list(run.CATALOG)


def test_digest_check():
    pins = {"dimg x": h.sha256_hex(b"{}\n")}
    assert h.sha256_hex("{}\n") == h.sha256_hex(b"{}\n")
    assert h.digest_mismatch("dimg x", b"{}\n", pins) is None
    assert h.digest_mismatch("dimg x", "{}\n", pins) is None
    assert "differs" in h.digest_mismatch("dimg x", b"{} \n", pins)
    assert "no digest" in h.digest_mismatch("dimg y", b"{}\n", pins)


def test_every_pinned_command_is_run_and_every_command_pinned():
    labels = {" ".join(c) for c in run.COMMANDS}
    assert labels == set(run.EXPECTED["cli"])
    assert {" ".join(c) for c in run.PROBE_COMMANDS} == set(run.EXPECTED["probe"])


def test_op_medians_and_passes():
    passes = [{"a": 1.0, "b": 5.0}, {"b": 3.0, "a": 2.0}, {"a": 9.0, "b": 4.0}]
    assert h.op_medians(passes) == {"a": 2.0, "b": 4.0}

    calls = []
    assert len(h.repeat_passes(lambda: calls.append(1), 0.0, 3)) == 3


def test_run_pass_counts_wrong_outputs_and_exceptions():
    def boom():
        raise ValueError("bad")
    result = h.run_pass([h.Op("ok", lambda: None), h.Op("wrong", lambda: "no"),
                         h.Op("boom", boom)], reference=lambda: 0.5)
    assert set(result.op_seconds) == {"ok", "wrong", "boom"}
    assert result.failures == ["wrong: no", "boom: ValueError: bad"]
    assert set(result.reference_seconds) == {"ok", "wrong", "boom"}
    assert all(samples == [0.5] * 2 * h.REFERENCE_SAMPLES
               for samples in result.reference_seconds.values())
    assert result.seconds == pytest.approx(sum(result.op_seconds.values()))


def test_normalised_rescales_to_the_nominal_reference():
    assert h.normalised(2.0, [0.004, 0.005, 0.006], 0.0025) == pytest.approx(1.0)
    assert h.reference_loop() > 0


def test_lie_dimensions():
    assert [run.lie_dimension(t) for t in
            ("A~1", "A~3", "D~4", "E~6", "E~7", "E~8")] == [3, 15, 28, 78, 133, 248]


def _fake_package():
    inner = types.ModuleType("inner")
    outer = types.ModuleType("outer")

    def leaf(x):
        return [x] * x

    class Box:
        @staticmethod
        def make(x):
            return x + 1

    def top(x):
        return len(inner.leaf(x)) + Box.make(x)

    inner.leaf, inner.Box = leaf, Box
    outer.top, outer.leaf = top, leaf  # as after `from inner import leaf`
    return {"inner": inner, "outer": outer}, leaf


def test_tracer_nests_spans_and_restores_the_functions():
    modules, leaf = _fake_package()
    tracer = h.Tracer([
        h.Target("outer", "top", "outer.top"),
        h.Target("inner", "leaf", "inner.leaf",
                 sizes=lambda args, kwargs, result: {"n": len(result)}),
        h.Target("inner", "make", "inner.make", cls="Box"),
    ])
    tracer.install(modules)
    try:
        assert modules["outer"].leaf is modules["inner"].leaf is not leaf
        assert modules["outer"].top(3) == 7
    finally:
        tracer.uninstall()
    assert modules["outer"].leaf is modules["inner"].leaf is leaf
    assert modules["inner"].Box.make(1) == 2

    spans = {s.name: s for s in tracer.take()}
    assert set(spans) == {"outer.top", "inner.leaf", "inner.make"}
    top = spans["outer.top"]
    assert spans["inner.leaf"].parent is top and spans["inner.make"].parent is top
    assert spans["inner.leaf"].sizes == {"n": 3}
    assert spans["inner.leaf"].layer == "inner"
    children = spans["inner.leaf"].seconds + spans["inner.make"].seconds
    assert top.self_seconds == pytest.approx(top.seconds - children)
    assert tracer.take() == []


def test_outermost_skips_nested_spans_of_the_same_name():
    outer = h.Span("s.f", "s", None, 0.0, 3.0)
    inner = h.Span("s.f", "s", outer, 1.0, 2.0)
    other = h.Span("s.g", "s", inner, 1.2, 1.5)
    assert h.outermost([outer, inner, other], "s.f") == [outer]
    assert h.outermost([outer, inner, other], "s.g") == [other]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.UNITS
    traced = set(run.layer_metrics([])) | {"cli.interpreter_s", "cli.import_s",
                                           "trace.overhead_s"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == traced
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
