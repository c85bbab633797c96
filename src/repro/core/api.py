"""The unified run facade: one entry point for every runtime.

``repro.run(workload, runtime=..., variant=..., config=RunConfig(...))``
executes any registered workload over the legacy coarse-grain runtime,
any of the five PaRSEC PTG variants, or the contrasted DTD model, and
returns a :class:`~repro.obs.result.RunResult` with a uniform shape:
virtual ``execution_time``, ``n_tasks``, ``recovery_counters()``, plus
— when the cluster's metrics registry is enabled — a ``metrics``
snapshot and a structured ``report``
(:class:`~repro.obs.report.RunReport`).

Workloads are addressed by registry token (``"t2_7:small"``,
``"ccsd:tiny"``, ``"rbgs:128x128"`` — see :mod:`repro.workloads`); a
bare scale name still resolves through the deprecated t2_7 shim. A
multi-level workload runs level by level with an explicit barrier in
between — the legacy application's own synchronization structure
(Section III-A) — and the facade merges the per-level results into one.
``runtime=`` may also list one runtime per level: Fig. 3's gradual
port, where some levels run over PaRSEC and the rest stay legacy.

The phase timers instrument the Section III-B pipeline on the virtual
clock: *inspection* (metadata collection), *ptg_build* (symbolic graph
construction), *execution* (one entry per level, barriers excluded;
one per run of consecutive legacy levels), and *validation* (output
checksum in REAL data mode). The legacy and DTD paths have no
inspector/PTG, so they record only *execution* (and *validation*).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.core.inspector import InspectionCache, inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V5, VariantSpec, variant_by_name
from repro.ga.cache import RemoteCachePolicy
from repro.legacy.runtime import LegacyConfig, LegacyRuntime
from repro.obs.result import MixedResult, RunResult
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.network import CoalescePolicy
from repro.tce.molecules import SCALE_PRESETS
from repro.util.errors import ConfigurationError
from repro.workloads import build_workload as _build_registered_workload
from repro.workloads import parse_workload_token
from repro.workloads.base import Workload

__all__ = [
    "MixedResult",
    "RunConfig",
    "StealPolicy",
    "precompute_inspection",
    "run",
]

#: ``runtime=`` shorthands for PaRSEC with one named variant.
_VARIANT_RUNTIMES = ("v1", "v2", "v3", "v4", "v5")


@dataclass(frozen=True)
class RunConfig:
    """Cluster shape and execution options for :func:`run`.

    The cluster fields (``n_nodes`` .. ``gpus_per_node``) only apply
    when the workload is given as a registry token and the facade
    builds the cluster itself; a pre-built workload object brings its
    own cluster and they are ignored.
    """

    n_nodes: int = 8
    cores_per_node: int = 4
    data_mode: DataMode = DataMode.REAL
    trace: bool = False
    metrics: bool = True
    machine: Optional[MachineModel] = None
    gpus_per_node: int = 0
    seed: int = 7
    #: PaRSEC: instantiate-time dataflow validation; REAL mode adds an
    #: output-checksum validation phase for every runtime.
    validate: bool = True
    #: PaRSEC node scheduler discipline (None = priority, the default).
    policy: Optional[object] = None
    #: Legacy runtime knobs (NXTVAL vs static assignment).
    legacy: Optional[LegacyConfig] = None
    #: PaRSEC: inter-node work stealing over the static chain placement
    #: (None = disabled, the paper's static distribution).
    stealing: Optional[StealPolicy] = None
    #: Workload imbalance knob (see :class:`~repro.tce.terms.TermBuilder`):
    #: chains with ``chain_id % skew_period == 0`` repeat their GEMM list
    #: ``skew_factor`` times. Only applies when the facade builds the
    #: workload from a registry token.
    skew_factor: int = 1
    skew_period: int = 0
    #: Comm optimization: per-destination message coalescing on the NIC
    #: (GA fetch requests and PaRSEC dataflow sends). None = off — the
    #: wire behavior the golden digests pin. Only applies when the
    #: facade builds the workload from a registry token; a pre-built
    #: workload object brings its own GlobalArrays.
    coalescing: Optional[CoalescePolicy] = None
    #: Comm optimization: bounded per-node software cache of fetched
    #: remote GA blocks, invalidated by write epochs. None = off. Token
    #: path only, like ``coalescing``.
    remote_cache: Optional[RemoteCachePolicy] = None
    #: PaRSEC: share inspected chain metadata across runs of the same
    #: workload structure + node count (the fig9 cores/node sweep). The
    #: phase timer still runs; only the redundant chain walk is skipped.
    inspection_cache: Optional[InspectionCache] = field(
        default=None, repr=False, compare=False
    )


def _build_cluster(config: RunConfig) -> Cluster:
    return Cluster(
        ClusterConfig(
            n_nodes=config.n_nodes,
            cores_per_node=config.cores_per_node,
            machine=config.machine or MachineModel(),
            data_mode=config.data_mode,
            trace_enabled=config.trace,
            metrics_enabled=config.metrics,
            gpus_per_node=config.gpus_per_node,
        )
    )


def _build_workload(token: str, config: RunConfig) -> Workload:
    """Build the workload a registry token names on a fresh cluster.

    Emits a :class:`DeprecationWarning` for bare legacy scale names
    (``"small"`` instead of ``"t2_7:small"``) — the pre-SDK spelling.
    """
    bare = token.strip()
    if ":" not in bare and bare in SCALE_PRESETS:
        warnings.warn(
            f"bare scale name {bare!r} is deprecated; spell the workload "
            f"explicitly, e.g. 't2_7:{bare}'",
            DeprecationWarning,
            stacklevel=3,
        )
    cluster = _build_cluster(config)
    ga = None
    if config.coalescing is not None or config.remote_cache is not None:
        from repro.ga.runtime import GlobalArrays

        ga = GlobalArrays(
            cluster,
            coalescing=config.coalescing,
            remote_cache=config.remote_cache,
        )
    return _build_registered_workload(
        token,
        cluster,
        ga,
        seed=config.seed,
        skew_factor=config.skew_factor,
        skew_period=config.skew_period,
    )


def _resolve_runtime(
    name: str, variant: VariantSpec = V5
) -> tuple[str, Optional[VariantSpec]]:
    """One ``runtime=`` name as ``(kind, variant)``.

    ``kind`` is ``"legacy"``, ``"dtd"``, or ``"parsec"``; the variant is
    set for PaRSEC only — named by ``"v1"``..``"v5"``, or ``variant``
    for plain ``"parsec"``.
    """
    key = name.lower()
    if key in ("legacy", "original"):
        return "legacy", None
    if key == "dtd":
        return "dtd", None
    if key == "parsec":
        return "parsec", variant
    if key in _VARIANT_RUNTIMES:
        return "parsec", variant_by_name(key)
    raise ConfigurationError(
        f"unknown runtime {name!r}: expected 'parsec', 'legacy', "
        f"'dtd', or one of {_VARIANT_RUNTIMES}"
    )


def _charge_barrier(cluster: Cluster) -> None:
    """Advance the virtual clock by one explicit inter-level barrier."""
    cluster.engine.schedule(cluster.machine.barrier_overhead_s, lambda: None)
    cluster.run()


def _merge_level_results(results, execution_time: float):
    """Fold per-level results of one runtime into one.

    Sums the result class's ``_sum_fields`` (dict-valued counters key
    by key). Per-level fault counters are deltas over that level's
    execution, so summing them is exact; the last level's result
    supplies everything non-additive (variant tag, result class).
    """
    totals: dict = {}
    for name in results[-1]._sum_fields:
        values = [getattr(result, name) for result in results]
        if isinstance(values[0], dict):
            merged: dict = {}
            for value in values:
                for key, count in value.items():
                    merged[key] = merged.get(key, 0) + count
            totals[name] = merged
        else:
            totals[name] = sum(values)
    return dataclasses.replace(
        results[-1], execution_time=execution_time, **totals
    )


def precompute_inspection(
    scale: str,
    n_nodes: int,
    codes: Union[list, tuple] = _VARIANT_RUNTIMES,
    seed: int = 7,
    cache: Optional[InspectionCache] = None,
    skew_factor: int = 1,
    skew_period: int = 0,
    workload: str = "t2_7",
) -> InspectionCache:
    """Fill an :class:`InspectionCache` for a sweep before it runs.

    Inspected chain metadata depends only on the workload's structure
    token, the node count, and the variant's chain height — not on
    cores/node, data mode, or the machine model. A sweep parent can
    therefore inspect once per (structure token × n_nodes × height) on
    a throwaway SYNTH cluster and ship the resulting cache to worker
    processes (it pickles cleanly), so the memoization survives process
    isolation instead of being recomputed in every worker.

    ``workload`` is a registry name or token; ``scale`` supplies its
    params when the token carries none. Multi-level workloads are
    inspected level by level. ``codes`` may mix variant names with
    non-PaRSEC runtimes (``"original"``/``"legacy"``/``"dtd"`` are
    skipped — they have no inspection phase); an unknown name raises
    :class:`~repro.util.errors.ConfigurationError`. Returns ``cache`` (a
    fresh one when ``None``).
    """
    cache = cache if cache is not None else InspectionCache()
    variants = []
    seen_heights = set()
    for code in codes:
        _, variant = _resolve_runtime(code)
        if variant is not None and variant.segment_height not in seen_heights:
            seen_heights.add(variant.segment_height)
            variants.append(variant)
    if not variants:
        return cache
    config = RunConfig(
        n_nodes=n_nodes,
        cores_per_node=1,
        data_mode=DataMode.SYNTH,
        metrics=False,
        seed=seed,
        skew_factor=skew_factor,
        skew_period=skew_period,
    )
    workload_obj = _build_registered_workload(
        workload,
        _build_cluster(config),
        scale=scale,
        seed=seed,
        skew_factor=skew_factor,
        skew_period=skew_period,
    )
    for subroutine in workload_obj.levels():
        for variant in variants:
            cache.precompute(subroutine, workload_obj.cluster, variant)
    return cache


def _plan_steps(levels, plan) -> list:
    """Group a per-level plan into execution steps.

    A maximal run of consecutive legacy levels is one step: the CGP
    rank barrier is its level barrier. Every other level is a step of
    its own. Each step is ``(kind, variant, subroutines)``.
    """
    steps: list = []
    for subroutine, (kind, variant) in zip(levels, plan):
        if kind == "legacy" and steps and steps[-1][0] == "legacy":
            steps[-1][2].append(subroutine)
        else:
            steps.append((kind, variant, [subroutine]))
    return steps


def _execute_step(workload, kind, variant, subroutines, config: RunConfig):
    """Run one step of a plan on the workload's cluster."""
    cluster = workload.cluster
    metrics = cluster.metrics
    if kind == "legacy":
        legacy = LegacyRuntime(cluster, workload.ga, config.legacy)
        with metrics.phase("execution"):
            return legacy.execute([list(sub.chains) for sub in subroutines])
    (subroutine,) = subroutines
    if kind == "dtd":
        from repro.core.dtd_port import run_over_dtd

        with metrics.phase("execution"):
            return run_over_dtd(cluster, subroutine)
    with metrics.phase("inspection"):
        metadata = inspect_subroutine(
            subroutine, cluster, variant, cache=config.inspection_cache
        )
    with metrics.phase("ptg_build"):
        ptg = build_ccsd_ptg(variant, metadata)
    parsec = ParsecRuntime(
        cluster,
        policy=config.policy,
        stealing=config.stealing,
        coalescing=config.coalescing,
    )
    with metrics.phase("execution"):
        result = parsec.execute(ptg, metadata, validate=config.validate)
    result.variant = variant.name
    return result


def _run_plan(workload, levels, plan, config: RunConfig) -> RunResult:
    """The level sequencer: execute each step, one barrier between steps.

    A single step returns its own result; a one-runtime plan merges its
    per-level results; a mixed plan returns a :class:`MixedResult`.
    """
    cluster = workload.cluster
    start = cluster.engine.now
    results = []
    for index, step in enumerate(_plan_steps(levels, plan)):
        if index:
            _charge_barrier(cluster)
        results.append(_execute_step(workload, *step, config))
    if len(results) == 1:
        return results[0]
    execution_time = cluster.engine.now - start
    if len(set(plan)) == 1:
        return _merge_level_results(results, execution_time)
    return MixedResult(execution_time=execution_time, levels=results)


def run(
    workload: Union[str, Workload] = "t2_7:small",
    runtime: Union[str, Sequence[str]] = "parsec",
    variant: Union[str, VariantSpec] = V5,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Execute one workload; the single public entry point.

    Parameters
    ----------
    workload:
        A registry token (``"t2_7:small"``, ``"ccsd:tiny"``,
        ``"rbgs:32x32"``; bare scale names still work through the
        deprecated t2_7 shim), for which a fresh cluster and workload
        are built from ``config`` — or a pre-built workload object
        (e.g. :class:`~repro.tce.t2_7.T27Workload`), which runs on its
        own cluster.
    runtime:
        ``"parsec"`` (uses ``variant``), ``"legacy"``/``"original"``,
        ``"dtd"``, or a variant name ``"v1"``..``"v5"`` as shorthand
        for PaRSEC with that variant. A sequence of such names, one per
        workload level, is a mixed plan (Fig. 3): each level runs on
        its own runtime and the result is a :class:`MixedResult`.
    variant:
        The PTG variant for ``"parsec"`` — a
        :class:`~repro.core.variants.VariantSpec` or its name.

    Unknown runtime or workload names raise
    :class:`~repro.util.errors.ConfigurationError` before any cluster
    is built (the CLI maps it to exit code 2), as does a plan whose
    length differs from the workload's level count.
    """
    config = config or RunConfig()
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    names = [runtime] if isinstance(runtime, str) else list(runtime)
    plan = [_resolve_runtime(name, variant) for name in names]

    if isinstance(workload, str):
        _, scale = parse_workload_token(workload)
        workload = _build_workload(workload, config)
    else:
        scale = None
    cluster = workload.cluster
    metrics = cluster.metrics
    levels = workload.levels()
    if isinstance(runtime, str):
        plan = plan * len(levels)
    elif len(plan) != len(levels):
        raise ConfigurationError(
            f"runtime plan has {len(plan)} entries but workload "
            f"{workload.name!r} has {len(levels)} levels"
        )

    result = _run_plan(workload, levels, plan, config)

    output = workload.output
    if config.validate and metrics.enabled and cluster.data_mode is DataMode.REAL:
        with metrics.phase("validation"):
            checksum = float(output.flat_values().sum())
        metrics.gauge_set("run.output_checksum", checksum)

    result.output = output
    if metrics.enabled:
        from repro.analysis.run_report import build_run_report

        result.metrics = metrics.snapshot()
        result.report = build_run_report(
            result,
            cluster,
            workload=workload.name,
            scale=scale,
            seed=workload.seed,
        )
    return result
