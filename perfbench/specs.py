"""The benchmark's workloads: which ops one pass runs, on which machine.

A workload is a fixed list of ops. Each op is one public call into the
simulator, made from this process with ``jobs=1``: ``repro.run`` for one
(workload token, runtime) pair, or ``run_fig9`` for a whole Figure 9
sweep, whose 18 cells are checked one by one. The harness repeats the
list in passes until the run's time is up.

The seed sets two inputs. It is the tensor-fill seed (``RunConfig.seed``),
so REAL outputs differ per seed. It also picks one of
``MACHINE_VARIANTS`` wire latencies, ``variant = seed % 8`` nanoseconds
above the calibrated 2.5 us. The latency moves the simulated makespans
by less than 1% (the legacy NXTVAL order is the most sensitive) and
leaves the amount of host work alike, so ``virtual_s`` depends on the
seed like any other input, and every seed still has committed expected
virtual times in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass
from typing import Optional

MACHINE_VARIANTS = 8
LATENCY_STEP_S = 1.0e-9

#: Cluster shape of every ``repro.run`` op: the RunConfig defaults,
#: spelled out because the expected virtual times depend on them.
N_NODES = 8
CORES_PER_NODE = 4


@dataclass
class Outcome:
    """One checked unit of a pass: an op, or one cell of a sweep op."""

    key: str
    virtual: Optional[float] = None
    #: REAL-mode output values (None for SYNTH ops or on error)
    output: object = None
    #: registry token whose ``reference_values()`` the output must match
    token: Optional[str] = None
    error: Optional[str] = None


def machine_variant(seed: int) -> int:
    return seed % MACHINE_VARIANTS


def machine_for(seed: int):
    """The calibrated machine with the seed's wire latency."""
    from repro.experiments.calibration import PAPER_MACHINE

    return dataclasses.replace(
        PAPER_MACHINE,
        net_latency_s=PAPER_MACHINE.net_latency_s
        + machine_variant(seed) * LATENCY_STEP_S,
    )


@dataclass(frozen=True)
class RunOp:
    """``repro.run(token, runtime)`` on 8 nodes x 4 cores, REAL data."""

    token: str
    runtime: str

    @property
    def keys(self) -> tuple[str, ...]:
        return (f"{self.token}/{self.runtime}",)

    def run(self, seed: int) -> list[Outcome]:
        import repro

        config = repro.RunConfig(
            n_nodes=N_NODES,
            cores_per_node=CORES_PER_NODE,
            seed=seed,
            machine=machine_for(seed),
        )
        result = repro.run(self.token, runtime=self.runtime, config=config)
        return [Outcome(self.keys[0], result.execution_time, result.output, self.token)]


@dataclass(frozen=True)
class Fig9Op:
    """``run_fig9`` over a grid of cores/node, SYNTH data, metrics off."""

    scale: str
    n_nodes: int
    core_counts: tuple[int, ...]
    codes: tuple[str, ...] = ("original", "v1", "v2", "v3", "v4", "v5")

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(f"{c}@{n}" for c in self.codes for n in self.core_counts)

    def run(self, seed: int) -> list[Outcome]:
        from repro.experiments.fig9 import run_fig9

        result = run_fig9(
            scale=self.scale,
            core_counts=self.core_counts,
            codes=self.codes,
            n_nodes=self.n_nodes,
            machine=machine_for(seed),
            seed=seed,
            jobs=1,
        )
        return [
            Outcome(f"{code}@{cores}", result.times[code][cores])
            for code in self.codes
            for cores in self.core_counts
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    #: whether the simulator's metrics registry is on for these ops
    metrics: bool

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(key for op in self.ops for key in op.keys)


def run_op(op, seed: int) -> list[Outcome]:
    """Run one op; an exception fails every unit the op covers."""
    try:
        return op.run(seed)
    except Exception as error:  # a failing op is counted, the run goes on
        traceback.print_exc()
        return [Outcome(key, error=repr(error)) for key in op.keys]


WORKLOADS = {
    workload.name: workload
    for workload in (
        # ~42k tiny tasks per pass, one PTG and one DTD execution.
        Workload(
            "ptg-rbgs",
            (RunOp("rbgs:32x32", "v5"), RunOp("rbgs:32x32", "dtd")),
            metrics=True,
        ),
        # 1764 chains over 7 barrier levels; no PTG or PaRSEC code runs.
        Workload("legacy-ccsd", (RunOp("ccsd:small", "legacy"),), metrics=True),
        # 18 cells: all six codes at 1/3/7 cores on 8 nodes.
        Workload(
            "fig9-sweep",
            (Fig9Op(scale="small", n_nodes=8, core_counts=(1, 3, 7)),),
            metrics=False,
        ),
    )
}
