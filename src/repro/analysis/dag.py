"""Task-graph structure analysis: work, span and parallelism.

The paper's Section IV-A argument — segmenting the GEMM chains
"increases available parallelism" — is a statement about the task DAG's
*critical path*. This module walks an instantiated
:class:`~repro.parsec.ptg.TaskGraph` along its output deps, weights
each task by its modeled cost, and computes:

- the critical path length (a lower bound on any execution time),
- total work (the serial execution time),
- the average parallelism (work / span — the classic bound on useful
  cores),

so structural claims like "v5's DAG is far wider than v1's" can be
checked without running the simulator at all. The graph algorithms
(Kahn's topological order, the longest node-weighted path) are a few
lines each, so the analysis needs nothing beyond the standard library.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, TypeVar

from repro.parsec.ptg import TaskGraph
from repro.sim.cost import MachineModel, OpCost
from repro.sim.trace import TaskCategory

__all__ = [
    "DagProfile",
    "task_successors",
    "topological_order",
    "longest_path",
    "profile_task_graph",
]

K = TypeVar("K", bound=Hashable)


def _estimate_cost(instance, md, machine: MachineModel) -> float:
    """Approximate one task's execution time from the cost model.

    Mirrors the charges the ptg_build bodies make (compute part plus
    memory bytes at the per-core copy rate); close enough for
    structural analysis.
    """
    category = instance.cls.category
    params = instance.params
    L1 = params[0]
    chain = md.chain(L1)
    copy_rate = machine.core_copy_bytes_per_s

    def total(cost: OpCost) -> float:
        return cost.cpu + cost.bytes / copy_rate

    if category is TaskCategory.GEMM:
        gemm = md.gemm(*params)
        return total(machine.gemm(gemm.m, gemm.n, gemm.k))
    if category is TaskCategory.READ_A or category is TaskCategory.READ_B:
        gemm = md.gemm(*params)
        size = gemm.a_hi - gemm.a_lo if category is TaskCategory.READ_A else gemm.b_hi - gemm.b_lo
        nbytes = 8.0 * size
        return nbytes / machine.ga_local_bytes_per_s + nbytes / copy_rate
    if category is TaskCategory.REDUCE:
        return total(machine.axpy(chain.c_size))
    if category is TaskCategory.DFILL:
        return total(machine.zero_fill(chain.c_size))
    if category is TaskCategory.SORT:
        cost = machine.zero_fill(chain.c_size)
        first = True
        for _ in chain.active_sorts:
            cost = cost + machine.sort4(chain.c_size, cache_warm=not first)
            cost = cost + machine.axpy(chain.c_size, cache_warm=True)
            first = False
        return total(cost)
    if category is TaskCategory.WRITE:
        seg = chain.write_segs[params[-1]]
        return total(machine.axpy(seg.size))
    return machine.task_overhead_s


def task_successors(graph: TaskGraph) -> dict[tuple, list[tuple]]:
    """Successor lists of the instantiated graph, keyed by task key.

    Follows every active output dep, as the runtime's completion path
    does; several deps from one producer to the same consumer make one
    edge. Lists keep the graph's instance and dep order.
    """
    md = graph.md
    successors: dict[tuple, list[tuple]] = {}
    for key, instance in graph.instances.items():
        params = instance.params
        targets: dict[tuple, None] = {}
        for flow in instance.cls.flows:
            for dep in flow.outputs:
                if dep.active(params, md):
                    consumer = (dep.target_class, tuple(dep.param_map(params, md)))
                    targets[consumer] = None
        successors[key] = list(targets)
    return successors


def topological_order(successors: Mapping[K, Iterable[K]]) -> list[K]:
    """Kahn's algorithm: every node after all of its predecessors.

    Nodes that appear only as successors are included. Ties are broken
    by first appearance, so the order is deterministic. Raises
    ``ValueError`` if the graph has a cycle.
    """
    indegree: dict[K, int] = {}
    for node, targets in successors.items():
        indegree.setdefault(node, 0)
        for target in targets:
            indegree[target] = indegree.get(target, 0) + 1
    queue = deque(node for node, count in indegree.items() if count == 0)
    order: list[K] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for target in successors.get(node, ()):
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    if len(order) != len(indegree):
        raise ValueError(
            f"graph has a cycle: {len(indegree) - len(order)} nodes unordered"
        )
    return order


def longest_path(
    costs: Mapping[K, float], successors: Mapping[K, Iterable[K]]
) -> tuple[float, list[K]]:
    """The heaviest path, summing node costs: ``(span, path)``.

    The graph's nodes are the keys and targets of ``successors``. The
    span is the maximum, over all paths, of the summed costs of the
    nodes on the path; ``path`` lists one such path from source to
    sink (the first found in topological order on ties). An empty graph
    has span 0 and an empty path.
    """
    order = topological_order(successors)
    if not order:
        return 0.0, []
    # best[node]: heaviest path ending at node, including its own cost
    best = {node: costs[node] for node in order}
    parent: dict[K, K] = {}
    for node in order:
        reach = best[node]
        for target in successors.get(node, ()):
            candidate = reach + costs[target]
            if candidate > best[target]:
                best[target] = candidate
                parent[target] = node
    end = max(order, key=best.__getitem__)
    path = [end]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    return best[end], path


@dataclass(frozen=True)
class DagProfile:
    """Structural summary of one task graph."""

    n_tasks: int
    n_edges: int
    total_work: float      # sum of task costs (serial time)
    critical_path: float   # span: longest cost-weighted path
    critical_length: int   # tasks on that path

    @property
    def average_parallelism(self) -> float:
        """Work / span — the classic upper bound on useful cores."""
        if self.critical_path == 0:
            return 0.0
        return self.total_work / self.critical_path


def profile_task_graph(graph: TaskGraph, machine: MachineModel) -> DagProfile:
    """Critical-path/work analysis of an instantiated task graph."""
    md = graph.md
    costs = {
        key: _estimate_cost(instance, md, machine)
        for key, instance in graph.instances.items()
    }
    successors = task_successors(graph)
    span, path = longest_path(costs, successors)
    return DagProfile(
        n_tasks=len(costs),
        n_edges=sum(len(targets) for targets in successors.values()),
        total_work=sum(costs.values()),
        critical_path=span,
        critical_length=len(path),
    )
