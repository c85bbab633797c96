"""The traced run's per-layer view of one workload.

Three sources, all on the benchmark's side of the program's public calls:

- ``self_shares``: cProfile self time grouped by the module that owns
  each function. Layer names are module names (``sim.engine``,
  ``parsec.dtd``, ``ga``, ...). A builtin or standard-library function
  belongs to no layer; its self time is charged to the layers of its
  direct callers, split by what each caller spent in it, so ``heapq``
  calls count towards ``sim.engine``. NumPy's own code and the builtins
  it defines form the ``numpy`` layer. The program's modules outside the
  named layers (``sim.node``, ``core.api``, ...) and the harness claim
  their own time and are left out, so the shares sum to at most 1.
- ``Spans``: host seconds inside the public calls between layers, timed
  by wrappers patched over them for the traced run only.
- Counts and waiting figures from the simulator's own metrics registry
  and the results the calls return.

``METRICS`` lists every per-layer metric with its unit, the end-to-end
metric it should move and the workloads it should move it on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Optional

LAYERS = (
    "sim.engine",
    "sim.timeline",
    "sim.resources",
    "sim.network",
    "sim.queues",
    "ga",
    "legacy",
    "parsec.scheduler",
    "parsec.taskclass",
    "parsec.comm",
    "parsec.ptg",
    "parsec.runtime",
    "parsec.dtd",
    "core.inspector",
    "core.metadata",
    "core.ptg_build",
    "core.dtd_port",
    "tce",
    "workloads",
    "obs",
    "numpy",
)
_WHOLE_PACKAGES = frozenset(layer for layer in LAYERS if "." not in layer)

#: (span, module, class or None, attribute) of every wrapped public call
SPAN_TARGETS = (
    ("build", "repro.workloads", None, "build_workload"),
    ("build", "repro.core.api", None, "_build_registered_workload"),
    ("inspect", "repro.core.api", None, "inspect_subroutine"),
    ("inspect", "repro.core.inspector", "InspectionCache", "precompute"),
    ("ptg_build", "repro.core.api", None, "build_ccsd_ptg"),
    ("instantiate", "repro.parsec.ptg", "PTG", "instantiate"),
    ("validate", "repro.parsec.ptg", "TaskGraph", "validate"),
    ("execute", "repro.parsec.runtime", "ParsecRuntime", "execute"),
    ("execute", "repro.legacy.runtime", "LegacyRuntime", "execute"),
    ("execute", "repro.legacy.runtime", "LegacyRuntime", "execute_subroutine"),
    ("execute", "repro.core.dtd_port", None, "run_over_dtd"),
)
SPANS = ("build", "inspect", "ptg_build", "instantiate", "validate", "execute")
#: spans whose return values are kept until the end of the pass
_KEPT = ("build", "execute")
#: per-layer count -> the simulator's metrics counter it sums
_COUNTERS = {
    "sim.network.messages": "net.messages",
    "sim.network.bytes": "net.bytes",
    "ga.gets": "ga.gets",
    "ga.accs": "ga.accs",
    "ga.get_bytes": "ga.get_bytes",
}

_ALL = ("ptg-rbgs", "legacy-ccsd", "fig9-sweep")
_PTG = ("ptg-rbgs", "fig9-sweep")


def _metric(unit, moves, on, control=()):
    return {"unit": unit, "moves": moves, "on": on, "control": control}


#: per-layer metric -> unit, the end-to-end metric it should move, the
#: workloads where it should move it, and the control workloads where
#: it should not
METRICS = {
    "sim.engine.self_share": _metric("fraction", "wall_s", _ALL),
    "sim.timeline.self_share": _metric("fraction", "wall_s", _ALL),
    "sim.resources.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "sim.network.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "sim.queues.self_share": _metric("fraction", "wall_s", _ALL),
    "ga.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "legacy.self_share": _metric(
        "fraction", "wall_s", ("legacy-ccsd",), ("ptg-rbgs",)
    ),
    "parsec.scheduler.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "parsec.taskclass.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "parsec.comm.self_share": _metric("fraction", "wall_s", _PTG, ("legacy-ccsd",)),
    "parsec.ptg.self_share": _metric(
        "fraction", "peak_rss_mib", _PTG, ("legacy-ccsd",)
    ),
    "parsec.runtime.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "parsec.dtd.self_share": _metric("fraction", "wall_s", ("ptg-rbgs",)),
    "core.inspector.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "core.metadata.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "core.ptg_build.self_share": _metric(
        "fraction", "wall_s", _PTG, ("legacy-ccsd",)
    ),
    "core.dtd_port.self_share": _metric("fraction", "wall_s", ("ptg-rbgs",)),
    "tce.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "workloads.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "obs.self_share": _metric(
        "fraction", "wall_s", ("ptg-rbgs", "legacy-ccsd"), ("fig9-sweep",)
    ),
    "numpy.self_share": _metric("fraction", "wall_s", ("legacy-ccsd",), ("fig9-sweep",)),
    "span.build_share": _metric("fraction", "wall_s", ("legacy-ccsd",)),
    "span.inspect_share": _metric("fraction", "wall_s", _PTG, ("legacy-ccsd",)),
    "span.ptg_build_share": _metric("fraction", "wall_s", _PTG, ("legacy-ccsd",)),
    "span.instantiate_share": _metric(
        "fraction", "peak_rss_mib", _PTG, ("legacy-ccsd",)
    ),
    "span.validate_share": _metric("fraction", "wall_s", _PTG, ("legacy-ccsd",)),
    "span.execute_share": _metric("fraction", "wall_s", _ALL),
    "sim.network.messages": _metric("count", "virtual_s", ("legacy-ccsd",)),
    "sim.network.bytes": _metric("B", "virtual_s", ("legacy-ccsd",)),
    "ga.gets": _metric("count", "virtual_s", ("legacy-ccsd",)),
    "ga.accs": _metric("count", "virtual_s", ("legacy-ccsd",)),
    "ga.get_bytes": _metric("B", "virtual_s", ("legacy-ccsd",)),
    "legacy.nxtval_requests": _metric("count", "virtual_s", ("legacy-ccsd",)),
    "parsec.tasks": _metric("count", "wall_s", _PTG, ("legacy-ccsd",)),
    "parsec.messages_remote": _metric("count", "virtual_s", _PTG, ("legacy-ccsd",)),
    "parsec.deliveries_local": _metric("count", "wall_s", _PTG, ("legacy-ccsd",)),
    "parsec.dtd.edges": _metric("count", "wall_s", ("ptg-rbgs",)),
    "sim.network.nic_backlog_hwm": _metric("count", "virtual_s", ("legacy-ccsd",)),
    "parsec.scheduler.ready_depth_hwm": _metric(
        "count", "peak_rss_mib", _PTG, ("legacy-ccsd",)
    ),
    "legacy.barrier_wait_share": _metric(
        "fraction", "virtual_s", ("legacy-ccsd",), ("ptg-rbgs",)
    ),
    "host_us_per_task": _metric("us", "wall_s", _ALL),
    "trace.overhead": _metric("x", "wall_s", _ALL),
    "host.calib_s": _metric("s", "wall_s", _ALL),
}


# -- cProfile self time by layer ----------------------------------------
def _repro_path(filename: str) -> tuple[bool, str]:
    """(whether the file is the program's, its path inside the package)."""
    _, found, rel = filename.replace(os.sep, "/").rpartition("/repro/")
    return bool(found), rel


def module_layer(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None."""
    found, rel = _repro_path(filename)
    if found:
        parts = rel.removesuffix(".py").split("/")
        if parts[0] in _WHOLE_PACKAGES:
            return parts[0]
        name = ".".join(parts[:2])
        return name if name in LAYERS else None
    return "numpy" if "/numpy/" in filename.replace(os.sep, "/") else None


def function_layer(func: tuple) -> Optional[str]:
    """The layer of a cProfile function label ``(file, line, name)``."""
    filename, _, name = func
    if filename == "~":  # a builtin: NumPy's, or nobody's
        return "numpy" if "numpy" in name else None
    return module_layer(filename)


def self_shares(stats: dict) -> dict[str, float]:
    """Each layer's share of all self time in cProfile ``stats``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    grand = 0.0
    for func, (_, _, self_time, _, callers) in stats.items():
        grand += self_time
        layer = function_layer(func)
        if layer is not None:
            totals[layer] += self_time
            continue
        if _repro_path(func[0])[0]:  # the program's code outside the layers
            continue
        for caller, (_, _, time_from_caller, _) in callers.items():
            caller_layer = function_layer(caller)
            if caller_layer is not None:
                totals[caller_layer] += time_from_caller
    if grand <= 0.0:
        return totals
    return {layer: total / grand for layer, total in totals.items()}


# -- spans and counts -----------------------------------------------------
class Spans:
    """Wrappers over ``SPAN_TARGETS``, installed for a ``with`` block.

    A span's time counts its outermost call only, so
    ``execute_subroutine`` calling ``execute`` is timed once.
    """

    def __init__(self) -> None:
        self._originals: list = []
        self._depth: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        self.seconds = dict.fromkeys(SPANS, 0.0)
        self.kept: dict[str, list] = {span: [] for span in _KEPT}

    def __enter__(self) -> "Spans":
        for span, module_name, class_name, attr in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[span]:
                return fn(*args, **kwargs)
            self._depth[span] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[span] += time.perf_counter() - start
                self._depth[span] -= 1
            if span in self.kept:
                self.kept[span].append(result)
            return result

        return wrapper

    def counts(self) -> dict[str, float]:
        """Counts and waiting figures of the pass so far.

        They come from what the calls returned and from each cluster's
        metrics registry, so the pass must have run with metrics on.
        """
        results = self.kept["execute"]
        legacy = [r for r in results if r.runtime_name == "legacy"]
        parsec = [r for r in results if r.runtime_name == "parsec"]
        dtd = [r for r in results if r.runtime_name == "dtd"]
        values = dict.fromkeys(_COUNTERS, 0.0)
        nic = ready = barrier_wait = 0.0
        for workload in self.kept["build"]:
            snapshot = workload.cluster.metrics.snapshot()
            for metric, counter in _COUNTERS.items():
                values[metric] += snapshot["counters"].get(counter, 0.0)
            for name, value in snapshot["gauges"].items():
                if name.startswith("nic.backlog.hwm{"):
                    nic = max(nic, value)
                elif name.startswith("sched.ready_depth.hwm{"):
                    ready = max(ready, value)
            waits = snapshot["histograms"].get("legacy.barrier_wait_s")
            if waits is not None:
                barrier_wait += waits["sum"]
        rank_seconds = sum(r.n_ranks * r.execution_time for r in legacy)
        return {
            **values,
            "legacy.nxtval_requests": sum(r.nxtval_requests for r in legacy),
            "parsec.tasks": sum(r.n_tasks for r in parsec),
            "parsec.messages_remote": sum(r.messages_remote for r in parsec),
            "parsec.deliveries_local": sum(r.deliveries_local for r in parsec),
            "parsec.dtd.edges": sum(r.n_edges for r in dtd),
            "sim.network.nic_backlog_hwm": nic,
            "parsec.scheduler.ready_depth_hwm": ready,
            "legacy.barrier_wait_share": (
                barrier_wait / rank_seconds if rank_seconds else 0.0
            ),
        }


@contextlib.contextmanager
def metrics_forced_on():
    """Build the Figure 9 sweep's clusters with the metrics registry on."""
    from repro.experiments import fig9

    original = fig9.make_cluster

    @functools.wraps(original)
    def make_cluster(*args, **kwargs):
        kwargs["metrics_enabled"] = True
        return original(*args, **kwargs)

    fig9.make_cluster = make_cluster
    try:
        yield
    finally:
        fig9.make_cluster = original
