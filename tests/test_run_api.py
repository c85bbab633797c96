"""Tests of the unified ``repro.run`` facade and the RunResult protocol."""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

import repro
from repro.core.api import RunConfig, run
from repro.experiments.calibration import make_cluster, make_workload
from repro.obs import RunReport, RunResult
from repro.util.errors import ConfigurationError

TINY = RunConfig(n_nodes=4, cores_per_node=2, seed=7)


class TestFacadeDispatch:
    def test_parsec_from_scale_string(self):
        result = run("t2_7:tiny", runtime="parsec", variant="v5", config=TINY)
        assert isinstance(result, RunResult)
        assert result.runtime_name == "parsec"
        assert result.variant == "v5"
        assert result.n_tasks > 0
        assert result.execution_time > 0

    def test_legacy_and_original_are_synonyms(self):
        a = run("t2_7:tiny", runtime="legacy", config=TINY)
        b = run("t2_7:tiny", runtime="original", config=TINY)
        assert a.runtime_name == b.runtime_name == "legacy"
        assert a.execution_time == b.execution_time

    def test_dtd(self):
        result = run("t2_7:tiny", runtime="dtd", config=TINY)
        assert result.runtime_name == "dtd"
        assert result.n_tasks > 0

    def test_variant_name_as_runtime_shorthand(self):
        result = run("t2_7:tiny", runtime="v3", config=TINY)
        assert result.runtime_name == "parsec"
        assert result.variant == "v3"

    def test_prebuilt_workload_uses_its_cluster(self):
        cluster = make_cluster(2, n_nodes=4, metrics_enabled=True)
        workload = make_workload(cluster, scale="tiny")
        result = run(workload, variant=repro.V4)
        assert result.variant == "v4"
        assert result.metrics is not None

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            run("t2_7:tiny", runtime="mpi", config=TINY)


class TestRunResultProtocol:
    def test_uniform_surface_across_runtimes(self):
        for runtime in ("legacy", "parsec", "dtd"):
            result = run("t2_7:tiny", runtime=runtime, config=TINY)
            assert result.execution_time > 0
            assert result.n_tasks > 0
            assert isinstance(result.recovery_counters(), dict)
            assert result.runtime_name in result.summary()
            assert result.output is not None

    def test_recovery_counters_zero_without_faults(self):
        result = run("t2_7:tiny", runtime="parsec", config=TINY)
        assert set(result.recovery_counters()) == {
            "task_retries",
            "retransmits",
            "tasks_recomputed",
            "tasks_reassigned",
            "nodes_crashed",
            "recovery_overhead_s",
        }
        assert all(v == 0 for v in result.recovery_counters().values())

    def test_report_attached_when_metrics_enabled(self):
        result = run("t2_7:tiny", runtime="parsec", config=TINY)
        assert isinstance(result.report, RunReport)
        assert result.report.runtime == "parsec"
        assert result.report.phases["execution"]["virtual_s"] > 0
        assert result.report.phases["inspection"]["count"] == 1
        assert result.report.phases["ptg_build"]["count"] == 1
        assert result.report.phases["validation"]["count"] == 1
        assert result.report.metrics["counters"]
        assert result.report.recovery["task_retries"] == 0

    def test_no_report_when_metrics_disabled(self):
        config = RunConfig(n_nodes=4, cores_per_node=2, metrics=False)
        result = run("t2_7:tiny", runtime="parsec", config=config)
        assert result.report is None
        assert result.metrics is None


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        a = run("t2_7:tiny", runtime="parsec", config=TINY)
        b = run("t2_7:tiny", runtime="parsec", config=TINY)
        assert a.report.to_json_line() == b.report.to_json_line()

    def test_metrics_do_not_change_virtual_time(self):
        times = {}
        for enabled in (False, True):
            config = RunConfig(n_nodes=4, cores_per_node=2, metrics=enabled)
            times[enabled] = run("t2_7:tiny", runtime="parsec", config=config).execution_time
        assert times[False] == times[True]

    def test_legacy_metrics_do_not_change_virtual_time(self):
        times = {}
        for enabled in (False, True):
            config = RunConfig(n_nodes=4, cores_per_node=2, metrics=enabled)
            times[enabled] = run("t2_7:tiny", runtime="legacy", config=config).execution_time
        assert times[False] == times[True]


class TestGoldenDigests:
    """Bitwise virtual-time + energy digests: workload x runtime.

    The t2_7 digests were captured *before* the DES fast path
    (immediate lane, try_get workers, inspection cache) landed and
    survived the workload-SDK refactor bit for bit; the ccsd and rbgs
    digests pin the two new workloads through every runtime the same
    way. Regenerate with ``tests/data/regen_golden_digests.py`` only
    for an intentional behavioural change.
    """

    GOLDEN = Path(__file__).parent / "data" / "golden_tiny_digests.json"
    WORKLOADS = ["t2_7", "ccsd", "rbgs"]
    RUNTIMES = ["legacy", "v1", "v2", "v3", "v4", "v5", "dtd"]

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(self.GOLDEN.read_text())

    def test_covers_every_workload_and_runtime(self, golden):
        assert sorted(golden) == sorted(self.WORKLOADS)
        for workload in self.WORKLOADS:
            assert sorted(golden[workload]) == sorted(self.RUNTIMES)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("rt", RUNTIMES)
    def test_digest_bitwise_stable(self, golden, workload, rt):
        from repro.tce.reference import correlation_energy

        config = RunConfig(n_nodes=4, cores_per_node=2, seed=7, metrics=False)
        result = run(f"{workload}:tiny", runtime=rt, config=config)
        assert result.execution_time.hex() == golden[workload][rt]["execution_time"]
        energy = correlation_energy(result.output.flat_values())
        assert energy.hex() == golden[workload][rt]["energy"]


class TestInspectionCache:
    def test_cached_and_uncached_runs_identical(self):
        from repro.core.api import InspectionCache

        cache = InspectionCache()
        config = RunConfig(
            n_nodes=4, cores_per_node=2, metrics=False, inspection_cache=cache
        )
        plain = RunConfig(n_nodes=4, cores_per_node=2, metrics=False)
        for rt in ("v2", "v5"):
            warm = run("t2_7:tiny", runtime=rt, config=config)  # miss, fills cache
            cached = run("t2_7:tiny", runtime=rt, config=config)  # hit
            reference = run("t2_7:tiny", runtime=rt, config=plain)
            assert warm.execution_time == reference.execution_time
            assert cached.execution_time == reference.execution_time
        assert cache.hits >= 2
        assert cache.misses >= 1

    def test_distinct_node_counts_do_not_collide(self):
        from repro.core.api import InspectionCache

        cache = InspectionCache()
        times = {}
        for n_nodes in (2, 4):
            config = RunConfig(
                n_nodes=n_nodes,
                cores_per_node=2,
                metrics=False,
                inspection_cache=cache,
            )
            times[n_nodes] = run("t2_7:tiny", runtime="v5", config=config).execution_time
        assert len(cache) == 2  # one entry per node count
        assert times[2] != times[4]


class TestDeprecatedShim:
    def test_bare_scale_warns_and_still_works(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run("tiny", runtime="v5", config=TINY)
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)
        assert result.execution_time > 0
        assert result.variant == "v5"
        assert result.report.scale == "tiny"

    def test_bare_scale_matches_explicit_token(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            shim = run("tiny", runtime="v5", config=TINY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            explicit = run("t2_7:tiny", runtime="v5", config=TINY)
        assert not any(
            issubclass(w.category, DeprecationWarning) for w in caught
        )
        assert shim.execution_time == explicit.execution_time
        assert (shim.output.flat_values() == explicit.output.flat_values()).all()

    def test_run_over_parsec_is_gone(self):
        assert not hasattr(repro, "run_over_parsec")
        assert not hasattr(repro, "run_ptg")
        for module in ("repro.core.executor", "repro.core.integration"):
            assert importlib.util.find_spec(module) is None
