"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
WORKLOAD_NAMES = {workload["name"] for workload in BENCHMARK["workloads"]}


def test_metric_and_workload_names_are_plain():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += list(WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_workloads_are_the_harness_workloads():
    assert WORKLOAD_NAMES == set(specs.WORKLOADS)


def test_every_per_layer_metric_names_what_it_should_move():
    per_layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == set(layers.METRICS)
    for name, spec in layers.METRICS.items():
        assert per_layer[name]["unit"] == spec["unit"], name
        assert spec["moves"] in END_TO_END, name
        assert spec["on"] and set(spec["on"]) <= WORKLOAD_NAMES, name
        assert set(spec["control"]) <= WORKLOAD_NAMES - set(spec["on"]), name


def test_expected_values_cover_every_seed_and_unit():
    expected = gate.load_expected()
    for name, workload in specs.WORKLOADS.items():
        variants = expected["virtual"][name]
        assert len(variants) == specs.MACHINE_VARIANTS
        for values in variants:
            assert set(values) == set(workload.keys)
    assert {str(gate.DEFAULT_SEED), str(gate.HELD_OUT_SEED)} <= set(
        expected["reference_sum"]
    )


def test_check_virtual_rejects_a_wrong_virtual_time():
    value = 0.0123
    assert gate.check_virtual(value, value.hex()) is None
    assert gate.check_virtual(math.nextafter(value, 1.0), value.hex())
    assert gate.check_virtual(value, None)


def test_check_output_rejects_a_perturbed_output():
    reference = np.linspace(-2.0, 3.0, 50)
    assert gate.check_output(reference.copy(), reference) is None
    close = reference.copy()
    close[7] += 1e-15
    assert gate.check_output(close, reference) is None
    perturbed = reference.copy()
    perturbed[7] += 1e-9
    assert gate.check_output(perturbed, reference)
    assert gate.check_output(reference[:-1], reference)
    nan = reference.copy()
    nan[0] = np.nan
    assert gate.check_output(nan, reference)


def test_check_reference_sum():
    reference = np.array([1.0, 2.0, 3.5])
    assert gate.check_reference_sum(reference, None) is None
    assert gate.check_reference_sum(reference, 6.5) is None
    assert gate.check_reference_sum(reference, 6.5 + 1e-6)


@pytest.fixture(scope="module")
def tiny_rbgs():
    """One real op on a 4x4 grid, and a Gate that expects its result."""
    op = specs.RunOp("rbgs:4x4", "v5")
    workload = specs.Workload("tiny", (op,), metrics=True)
    seed = 3
    outcome = op.run(seed)[0]
    outcome.output = outcome.output.flat_values()
    variants = [{} for _ in range(specs.MACHINE_VARIANTS)]
    variants[specs.machine_variant(seed)] = {outcome.key: outcome.virtual.hex()}
    expected = {"virtual": {"tiny": variants}, "reference_sum": {}}
    return workload, seed, outcome, expected


def _copy(outcome, **changes):
    fields = dict(vars(outcome))
    fields["output"] = outcome.output.copy()
    fields.update(changes)
    return specs.Outcome(**fields)


def test_gate_passes_a_correct_op(tiny_rbgs):
    workload, seed, outcome, expected = tiny_rbgs
    checker = gate.Gate(workload, seed, expected)
    checker.add([_copy(outcome), _copy(outcome)])
    assert checker.finish() == (2, 0)


def test_gate_fails_a_wrong_virtual_time(tiny_rbgs):
    workload, seed, outcome, expected = tiny_rbgs
    checker = gate.Gate(workload, seed, expected)
    checker.add([_copy(outcome, virtual=outcome.virtual * (1 + 1e-12))])
    assert checker.finish() == (1, 1)


def test_gate_fails_a_perturbed_output(tiny_rbgs):
    workload, seed, outcome, expected = tiny_rbgs
    checker = gate.Gate(workload, seed, expected)
    bad = _copy(outcome)
    bad.output[3] += 1e-9 * np.max(np.abs(bad.output))
    checker.add([bad, _copy(bad)])
    assert checker.finish() == (2, 2)


def test_gate_fails_a_pass_that_differs_from_the_first(tiny_rbgs):
    workload, seed, outcome, expected = tiny_rbgs
    checker = gate.Gate(workload, seed, expected)
    drifted = _copy(outcome)
    drifted.output[0] = np.nextafter(drifted.output[0], np.inf)
    checker.add([_copy(outcome), drifted])
    assert checker.finish() == (2, 1)


def test_gate_counts_an_op_that_raised(tiny_rbgs):
    workload, seed, _, expected = tiny_rbgs
    checker = gate.Gate(workload, seed, expected)
    failing = specs.RunOp("rbgs:4x4", "no-such-runtime")
    checker.add(specs.run_op(failing, seed))
    assert checker.finish() == (1, 1)


def test_spans_time_the_calls_and_restore_them():
    import repro
    from repro.parsec.runtime import ParsecRuntime

    original = ParsecRuntime.execute
    with layers.Spans() as spans:
        result = repro.run("rbgs:4x4", runtime="v5")
        counts = spans.counts()
    assert ParsecRuntime.execute is original
    assert spans.seconds["execute"] > 0.0
    assert spans.seconds["build"] > 0.0
    assert counts["parsec.tasks"] == result.n_tasks
    assert counts["sim.network.messages"] == result.metrics["counters"]["net.messages"]


def test_self_shares_charge_builtins_to_their_callers():
    engine = ("/x/src/repro/sim/engine.py", 10, "run")
    ga = ("/x/src/repro/ga/runtime.py", 5, "get")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    dot = ("~", 0, "<built-in method numpy.dot>")
    node = ("/x/src/repro/sim/node.py", 7, "post")
    stats = {
        engine: (1, 1, 4.0, 9.0, {}),
        ga: (1, 1, 1.0, 2.0, {}),
        heappush: (2, 2, 3.0, 3.0, {engine: (1, 1, 2.0, 2.0), ga: (1, 1, 1.0, 1.0)}),
        dot: (1, 1, 2.0, 2.0, {ga: (1, 1, 2.0, 2.0)}),
        node: (1, 1, 10.0, 10.0, {engine: (1, 1, 10.0, 10.0)}),
    }
    shares = layers.self_shares(stats)
    assert shares["sim.engine"] == pytest.approx(0.3)
    assert shares["ga"] == pytest.approx(0.1)
    assert shares["numpy"] == pytest.approx(0.1)
    assert sum(shares.values()) == pytest.approx(0.5)


def test_module_layer():
    assert layers.module_layer("/a/src/repro/sim/timeline.py") == "sim.timeline"
    assert layers.module_layer("/a/src/repro/ga/cache.py") == "ga"
    assert layers.module_layer("/a/src/repro/parsec/stealing.py") is None
    assert layers.module_layer("/a/src/repro/core/api.py") is None
    assert layers.module_layer("/usr/lib/numpy/linalg/_linalg.py") == "numpy"
    assert layers.module_layer("/usr/lib/python3.11/heapq.py") is None


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    percentile, value = run.tail_percentile(list(range(20)))
    assert percentile == pytest.approx(50.0)
    assert value == 9
