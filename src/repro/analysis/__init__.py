"""Trace analysis and reporting.

The paper's Figures 10-13 are execution traces read qualitatively: how
much idle time a variant has at startup, whether communication overlaps
computation, how GET_HASH_BLOCK cost compares to GEMM cost. This
package computes those quantities from :class:`~repro.sim.trace`
recordings and renders ASCII Gantt charts standing in for the figures.
"""

from repro.analysis.metrics import (
    blocking_comm_fraction,
    busy_fraction,
    category_time_share,
    comm_compute_overlap,
    idle_gaps,
    startup_idle_fraction,
    thread_utilization,
)
from repro.analysis.gantt import render_gantt
from repro.analysis.report import format_table, format_fig9_table
from repro.analysis.ascii_chart import render_series_chart
from repro.analysis.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.analysis.dag import DagProfile, profile_task_graph

__all__ = [
    "blocking_comm_fraction",
    "busy_fraction",
    "category_time_share",
    "comm_compute_overlap",
    "idle_gaps",
    "startup_idle_fraction",
    "thread_utilization",
    "render_gantt",
    "format_table",
    "format_fig9_table",
    "render_series_chart",
    "to_chrome_trace",
    "write_chrome_trace",
    "DagProfile",
    "profile_task_graph",
]
