"""The common run-result protocol shared by every runtime.

:class:`~repro.parsec.runtime.ParsecResult`,
:class:`~repro.legacy.runtime.LegacyResult`, and
:class:`~repro.parsec.dtd.DtdResult` all inherit :class:`RunResult`, so
``repro.experiments`` and ``repro.analysis`` can consume any runtime's
outcome through one surface:

- ``execution_time`` — virtual seconds (a dataclass field everywhere);
- ``n_tasks`` — task/work-unit count (field or property per runtime);
- ``recovery_counters()`` — the nonzero-under-faults counters, as a
  dict keyed by counter name;
- ``metrics`` / ``report`` / ``output`` — the run's metrics snapshot,
  its :class:`~repro.obs.report.RunReport`, and the output tensor
  handle, attached by the :func:`repro.run` facade.

:class:`MixedResult` is the outcome of a mixed-runtime plan (Fig. 3):
the per-level results of the runtimes that took part, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["MixedResult", "RunResult"]


class RunResult:
    """Base/protocol for runtime results (not itself a dataclass).

    Subclasses are dataclasses that provide ``execution_time`` and
    ``n_tasks``, list their fault-recovery fields in
    ``_recovery_fields``, and list in ``_sum_fields`` the counters that
    add up across the levels of a multi-level run.
    """

    #: names of the subclass's recovery-counter fields
    _recovery_fields: tuple[str, ...] = ()
    #: names of the fields summed when per-level results merge
    _sum_fields: tuple[str, ...] = ()

    # attached by the repro.run() facade (class-level defaults so
    # results produced by lower-level entry points still conform)
    metrics: Optional[dict] = None
    report: Optional[Any] = None
    output: Optional[Any] = None

    @property
    def runtime_name(self) -> str:
        """Short runtime identifier derived from the result type."""
        return type(self).__name__.removesuffix("Result").lower()

    def recovery_counters(self) -> dict[str, float]:
        """The fault-recovery counters, keyed by field name."""
        return {name: getattr(self, name) for name in self._recovery_fields}

    def summary(self) -> str:
        """One human line: runtime, task count, virtual time."""
        return (
            f"{self.runtime_name}: {self.n_tasks} tasks in "
            f"{self.execution_time:.4f}s (virtual)"
        )


@dataclass
class MixedResult(RunResult):
    """Outcome of a plan that runs levels on different runtimes.

    ``levels`` holds one result per step, in plan order; consecutive
    legacy levels run as one step and give one entry.
    """

    execution_time: float
    levels: list = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return sum(result.n_tasks for result in self.levels)

    def recovery_counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for result in self.levels:
            for name, value in result.recovery_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals
