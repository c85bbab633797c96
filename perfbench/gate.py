"""The correctness gate: every op's virtual time and REAL output.

- Virtual time must equal the committed ``execution_time`` hex for the
  seed's machine variant exactly. Virtual time is deterministic by
  construction and portable across hosts.
- A REAL output must match the workload's own dense-NumPy
  ``reference_values()`` within the paper's 1e-13 relative criterion:
  ``max|out - ref| <= 1e-13 * max|ref|``. Energies are not compared
  bitwise, because they follow the host's BLAS kernel.
- For the committed seeds, the reference itself must sum to its
  committed value, so a change to the data fill or to the reference
  cannot pass unnoticed.

A failed check fails that op; it does not stop the run.

``python3 perfbench/gate.py`` rewrites ``expected.json``; only a change
that is meant to move the model's virtual times should need it.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from typing import Optional

import numpy as np

from specs import (
    CORES_PER_NODE,
    MACHINE_VARIANTS,
    N_NODES,
    WORKLOADS,
    RunOp,
    machine_variant,
)

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")
OUTPUT_RTOL = 1.0e-13
#: relative tolerance on a committed reference sum: the reference runs
#: through BLAS, so its last bits follow the host
REFERENCE_SUM_RTOL = 1.0e-12
#: the workload seed used while writing the benchmark, and one held out
#: from it, so a later claim can be re-checked on a seed nobody tuned on
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009


def load_expected(path: pathlib.Path = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_virtual(virtual: float, expected_hex: Optional[str]) -> Optional[str]:
    """None when ``virtual`` is exactly the committed value."""
    if expected_hex is None:
        return "no committed virtual time"
    if virtual.hex() != expected_hex:
        return f"virtual time {virtual.hex()} != expected {expected_hex}"
    return None


def check_output(output: np.ndarray, reference: np.ndarray) -> Optional[str]:
    """None when ``output`` is within OUTPUT_RTOL of ``reference``."""
    if output.shape != reference.shape:
        return f"output shape {output.shape} != reference {reference.shape}"
    scale = float(np.max(np.abs(reference))) if reference.size else 0.0
    error = float(np.max(np.abs(output - reference))) if reference.size else 0.0
    if not error <= OUTPUT_RTOL * scale:
        return f"output error {error:.3e} exceeds {OUTPUT_RTOL:g} x {scale:.3e}"
    return None


def check_reference_sum(reference: np.ndarray, expected: Optional[float]) -> Optional[str]:
    """None when there is no committed sum or the reference matches it."""
    if expected is None:
        return None
    total = math.fsum(reference)
    scale = math.fsum(np.abs(reference))
    if not abs(total - expected) <= REFERENCE_SUM_RTOL * scale:
        return f"reference sum {total!r} != committed {expected!r}"
    return None


def reference_values(token: str, seed: int) -> np.ndarray:
    """The workload's dense reference, built on a fresh REAL cluster."""
    from repro.experiments.calibration import make_cluster
    from repro.sim.cluster import DataMode
    from repro.workloads import build_workload

    cluster = make_cluster(CORES_PER_NODE, n_nodes=N_NODES, data_mode=DataMode.REAL)
    return build_workload(token, cluster, seed=seed).reference_values()


class Gate:
    """Checks every outcome of one run; failures are counted, not raised.

    The first passing output of each op is kept and every later pass
    must reproduce it bitwise: the simulator is deterministic on one
    host, and in a traced run this proves profiling changed no result.
    """

    def __init__(self, workload, seed: int, expected: dict) -> None:
        variants = expected["virtual"].get(workload.name)
        self.virtual = variants[machine_variant(seed)] if variants else {}
        self.reference_sums = expected["reference_sum"].get(str(seed), {})
        self.seed = seed
        self._first: dict[str, tuple] = {}
        self._units: list[list] = []

    def add(self, outcomes) -> None:
        for outcome in outcomes:
            problem = outcome.error or check_virtual(
                outcome.virtual, self.virtual.get(outcome.key)
            )
            if problem is None and outcome.output is not None:
                first = self._first.setdefault(
                    outcome.key, (outcome.token, outcome.output)
                )[1]
                if first.tobytes() != outcome.output.tobytes():
                    problem = "output differs bitwise from the run's first pass"
            self._units.append([outcome.key, problem])

    def finish(self) -> tuple[int, int]:
        """Check the kept outputs against their references; (attempted, failed)."""
        references: dict[str, np.ndarray] = {}
        for key, (token, output) in self._first.items():
            try:
                if token not in references:
                    references[token] = reference_values(token, self.seed)
            except Exception as error:  # counted as a failed check
                problem = f"reference failed: {error!r}"
            else:
                reference = references[token]
                problem = check_reference_sum(
                    reference, self.reference_sums.get(token)
                ) or check_output(output, reference)
            if problem is not None:
                for unit in self._units:
                    if unit[0] == key and unit[1] is None:
                        unit[1] = problem
        return len(self._units), len(self.problems)

    @property
    def problems(self) -> list[str]:
        return [f"{key}: {problem}" for key, problem in self._units if problem]


def write_expected() -> None:
    """Recompute every committed value; for a change that moves the model."""
    expected: dict = {"virtual": {}, "reference_sum": {}}
    for workload in WORKLOADS.values():
        variants = []
        for variant in range(MACHINE_VARIANTS):
            values = {}
            for op in workload.ops:
                for outcome in op.run(variant):
                    values[outcome.key] = outcome.virtual.hex()
            variants.append(values)
        expected["virtual"][workload.name] = variants
    tokens = sorted(
        {op.token for w in WORKLOADS.values() for op in w.ops if isinstance(op, RunOp)}
    )
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        expected["reference_sum"][str(seed)] = {
            token: math.fsum(reference_values(token, seed)) for token in tokens
        }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    write_expected()
