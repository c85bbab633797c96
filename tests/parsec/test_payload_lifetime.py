"""Payload lifetime: a dataflow value is freed once its last consumer has it.

PaRSEC keeps a data-repository entry only until its consumers have run.
The PTG runtime drops a task's received inputs when the task completes;
the DTD runtime counts the outstanding reads of each handle and drops
its value when the count reaches zero.
"""

import pytest

import repro
from repro.core.api import RunConfig
from repro.parsec.dtd import AccessMode, DtdRuntime
from repro.parsec.runtime import ParsecRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import OpCost


def capture(monkeypatch, cls):
    """Record every ``cls`` instance whose ``execute`` runs."""
    seen = []
    original = cls.execute

    def execute(self, *args, **kwargs):
        seen.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "execute", execute)
    return seen


class TestPtgInputsReleased:
    @pytest.mark.parametrize("gpus", [0, 1])
    def test_no_done_task_holds_inputs(self, monkeypatch, gpus):
        runtimes = capture(monkeypatch, ParsecRuntime)
        result = repro.run(
            "ccsd:tiny", runtime="v5", config=RunConfig(gpus_per_node=gpus)
        )
        assert result.execution_time > 0
        assert len(runtimes) == 7  # one PTG per CCSD level
        for runtime in runtimes:
            tasks = list(runtime.graph.instances.values())
            assert tasks and all(task.done for task in tasks)
            assert not any(task.inputs or task.input_tags for task in tasks)
        gpu_tasks = sum(
            sched.gpu_tasks_executed
            for runtime in runtimes
            for sched in runtime.schedulers
        )
        assert (gpu_tasks > 0) == (gpus > 0)


class TestDtdValuesReleased:
    def test_value_lives_until_its_last_read(self):
        cluster = Cluster(
            ClusterConfig(n_nodes=1, cores_per_node=2, data_mode=DataMode.REAL)
        )
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        unread = runtime.data("unread", 1, 0)
        untouched = runtime.data("untouched", 1, 0, value="kept")
        seen = {}

        def write(key, value):
            def body(ctx):
                yield from ctx.charge(OpCost(0.1, 0.0))
                ctx.write(key, value)

            return body

        def read(name):
            def body(ctx):
                yield from ctx.charge(OpCost(0.1, 0.0))
                seen[name] = ctx.data["x"]

            return body

        def bump(ctx):
            seen["U"] = ctx.data["x"]
            yield from ctx.charge(OpCost(0.1, 0.0))
            ctx.write("x", ctx.data["x"] + 1)

        runtime.insert_task("W", write("x", 1), [(x, AccessMode.WRITE)], node=0)
        runtime.insert_task("R", read("R"), [(x, AccessMode.READ)], node=0)
        runtime.insert_task("U", bump, [(x, AccessMode.RW)], node=0)
        runtime.insert_task("F", read("F"), [(x, AccessMode.READ)], node=0)
        runtime.insert_task(
            "Y", write("unread", 5), [(unread, AccessMode.WRITE)], node=0
        )
        result = runtime.execute()
        assert seen == {"R": 1, "U": 1, "F": 2}
        assert x.value is None and unread.value is None
        assert untouched.value == "kept"
        # the release changes no bookkeeping: W->R, R->U (anti) and
        # W->U (output), U->F
        assert result.n_edges == 4

    def test_no_handle_holds_a_value_after_a_port_run(self, monkeypatch):
        runtimes = capture(monkeypatch, DtdRuntime)
        result = repro.run("ccsd:tiny", runtime="dtd")
        assert result.execution_time > 0
        assert runtimes
        for runtime in runtimes:
            handles = list(runtime._handles.values())
            assert handles
            assert all(handle.value is None for handle in handles)
            assert all(handle._reads_left == 0 for handle in handles)
