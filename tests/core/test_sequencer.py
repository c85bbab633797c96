"""The level sequencer behind ``repro.run``: per-level runtime plans.

A workload runs level by level. ``runtime=`` is either one name for
every level or a plan with one name per level — Fig. 3's gradual port,
where some levels run over PaRSEC and the rest stay legacy. These tests
pin that a homogeneous plan is the same run as the single name, that a
mixed plan computes the right numbers and reports its steps in order,
and that malformed plans fail before anything runs.
"""

import numpy as np
import pytest

from repro.core import api
from repro.core.api import MixedResult, RunConfig, run
from repro.experiments.calibration import make_cluster
from repro.sim.cluster import DataMode
from repro.tce.reference import correlation_energy
from repro.util.errors import ConfigurationError
from repro.workloads import build_workload

TINY = RunConfig(n_nodes=4, cores_per_node=2, seed=7)

#: "t2_7 + ladders" over PaRSEC: levels 3 (icsd_t2_7, icsd_t2_8) and 6
#: (icsd_t2_13) are ported, the rest of the iteration stays legacy
PORTED_LADDERS = ["legacy"] * 3 + ["v5", "legacy", "legacy", "v5"]

LEVELS = {"ccsd": 7, "rbgs": 2}


def _workload(token):
    cluster = make_cluster(2, n_nodes=4, data_mode=DataMode.REAL)
    return build_workload(token, cluster, seed=TINY.seed)


class TestHomogeneousPlan:
    @pytest.mark.parametrize("workload", sorted(LEVELS))
    @pytest.mark.parametrize("rt", ["legacy", "v5", "dtd"])
    def test_list_of_one_name_is_the_name(self, workload, rt):
        token = f"{workload}:tiny"
        named = run(token, runtime=rt, config=TINY)
        planned = run(token, runtime=[rt] * LEVELS[workload], config=TINY)
        assert type(planned) is type(named)
        assert planned.execution_time.hex() == named.execution_time.hex()
        assert planned.n_tasks == named.n_tasks
        np.testing.assert_array_equal(
            planned.output.flat_values(), named.output.flat_values()
        )

    def test_multi_level_parsec_merges_per_level_counts(self):
        result = run("ccsd:tiny", runtime="v5", config=TINY)
        assert result.variant == "v5"
        assert sum(result.tasks_per_class.values()) == result.n_tasks
        assert result.report.phases["inspection"]["count"] == 7
        assert result.report.phases["execution"]["count"] == 7


class TestExecutionPhases:
    @pytest.mark.parametrize("workload", sorted(LEVELS))
    def test_dtd_times_each_level_apart(self, workload):
        """One execution entry per level, barriers excluded — as PaRSEC."""
        result = run(f"{workload}:tiny", runtime="dtd", config=TINY)
        execution = result.report.phases["execution"]
        assert execution["count"] == LEVELS[workload]
        assert execution["virtual_s"] < result.execution_time

    def test_legacy_levels_share_one_execution(self):
        """The CGP rank barrier is the level barrier: one legacy step."""
        result = run("ccsd:tiny", runtime="legacy", config=TINY)
        assert result.report.phases["execution"]["count"] == 1
        assert result.n_levels == 7


class TestMixedPlan:
    def test_matches_dense_reference(self):
        workload = _workload("ccsd:tiny")
        assert workload.cluster.data_mode is DataMode.REAL
        result = run(workload, runtime=PORTED_LADDERS, config=TINY)
        reference = workload.reference_values()
        values = result.output.flat_values()
        assert correlation_energy(values) == pytest.approx(
            correlation_energy(reference), rel=1e-13
        )
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=1e-12)

    def test_levels_report_runtimes_in_plan_order(self):
        result = run("ccsd:tiny", runtime=PORTED_LADDERS, config=TINY)
        assert isinstance(result, MixedResult)
        assert result.runtime_name == "mixed"
        # consecutive legacy levels run as one step
        assert [r.runtime_name for r in result.levels] == [
            "legacy",
            "parsec",
            "legacy",
            "parsec",
        ]
        assert [r.n_levels for r in result.levels[::2]] == [3, 2]
        assert [r.variant for r in result.levels[1::2]] == ["v5", "v5"]
        assert result.n_tasks == sum(r.n_tasks for r in result.levels)
        assert result.execution_time > sum(
            r.execution_time for r in result.levels
        )
        assert result.report.runtime == "mixed"
        assert result.report.phases["execution"]["count"] == 4
        assert result.report.phases["inspection"]["count"] == 2

    def test_recovery_counters_sum_over_steps(self):
        result = run("ccsd:tiny", runtime=PORTED_LADDERS, config=TINY)
        counters = result.recovery_counters()
        assert "tickets_reissued" in counters and "retransmits" in counters
        assert all(value == 0 for value in counters.values())

    def test_mixed_variants_are_a_mixed_plan(self):
        plan = ["v1", "v5"]
        result = run("rbgs:tiny", runtime=plan, config=TINY)
        assert isinstance(result, MixedResult)
        assert [r.variant for r in result.levels] == plan


class TestPlanValidation:
    @pytest.mark.parametrize("plan", [["v5"] * 6, ["v5"] * 8, []])
    def test_wrong_length_rejected(self, plan):
        with pytest.raises(ConfigurationError, match="7 levels"):
            run("ccsd:tiny", runtime=plan, config=TINY)

    def test_unknown_name_rejected_before_any_cluster(self, monkeypatch):
        def no_cluster(config):
            raise AssertionError("a cluster was built")

        monkeypatch.setattr(api, "_build_cluster", no_cluster)
        with pytest.raises(ConfigurationError, match="mpi"):
            run("ccsd:tiny", runtime=["legacy"] * 6 + ["mpi"], config=TINY)
        with pytest.raises(ConfigurationError, match="mpi"):
            run("ccsd:tiny", runtime="mpi", config=TINY)

    def test_precompute_inspection_rejects_unknown_codes(self):
        with pytest.raises(ConfigurationError):
            api.precompute_inspection("tiny", 4, codes=("v5", "mpi"))
