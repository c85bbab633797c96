"""Host-time benchmark of the simulator, end to end or per layer.

One run measures one workload in this fresh interpreter::

    python3 perfbench/run.py --workload ptg-rbgs --seed 7 --seconds 36 --trace 0

and ``--workload all`` runs every workload, each in a fresh interpreter
of its own, and prints one table. Workloads are defined in ``specs.py``.

A run repeats the workload's ops in passes until ``--seconds`` have
gone by, calling the program from this one process with ``jobs=1`` and
no extra threads. Each op is checked by ``gate.py``; a failed op counts
in ``failed`` and the run goes on.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median of cold ``import repro`` times, each in a fresh
  child interpreter: three before the first op and one before each pass;
- ``wall_s``: median host seconds of one pass. It includes building each
  op's inputs, because ``repro.run`` pays for it, and excludes checking;
- ``peak_rss_mib``: this process's peak resident memory after its first
  pass;
- ``virtual_s``: sum of one pass's simulated makespans.

``--trace 1`` runs one plain pass with spans, then passes under
cProfile, and reports the per-layer metrics listed in
``layers.METRICS``. The plain pass is checked first, so the gate's
bitwise comparison with it proves that profiling changed no result.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import layers  # noqa: E402
import specs  # noqa: E402

#: cold imports before the first pass; one more runs before every pass,
#: so the median of setup_s spans the host's state over the whole run
IMPORT_SAMPLES = 3
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_SAMPLES = 3
#: seconds any one child run may take before the parent gives up on it
CHILD_TIMEOUT_S = 900

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "print(repr(time.perf_counter() - start))\n"
)


def import_seconds() -> float:
    """One cold ``import repro`` time, in a fresh child interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(probe.stdout)


def calibration_seconds() -> float:
    """A fixed pure-Python loop: the host's current speed, for context."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def timed_pass(workload, seed, profiler=None):
    """Run every op once; return (host seconds, outcomes).

    Only the ops are timed; outputs are gathered after each op's clock
    stops, so the check stays outside the timed section.
    """
    wall = 0.0
    outcomes = []
    for op in workload.ops:
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        done = specs.run_op(op, seed)
        wall += time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        for outcome in done:
            if outcome.output is not None:
                outcome.output = outcome.output.flat_values()
        outcomes.extend(done)
    return wall, outcomes


def tail_percentile(values):
    """The highest percentile with >= 10 samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit, what):
    median = statistics.median(values)
    tail = tail_percentile(values)
    tail_text = (
        f"p{tail[0]:.0f} {tail[1]:.4f} {unit}" if tail else "no tail: < 11 samples"
    )
    print(f"  {name:16s} {median:.6g} {unit} ({what}; n={len(values)}, {tail_text})")


class Laps:
    """Starts passes while the next one should end within ``seconds``.

    The first pass always runs. A later one starts only if the median
    lap so far, added to the time spent, stays within the budget, so a
    run ends close to ``seconds`` rather than up to a pass later.
    """

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.laps: list[float] = []
        self._lap_start: float | None = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self._lap_start is not None:
            self.laps.append(now - self._lap_start)
        self._lap_start = now
        return not self.laps or now + statistics.median(self.laps) <= self.deadline


def measure(workload, seed, seconds, checker):
    """The untraced run: passes until ``seconds`` are up.

    Peak memory is read after the first pass, which does the same work
    in every run, as a user's fresh process would.
    """
    setup = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    walls = []
    calibration = []
    laps = Laps(seconds)
    while laps.another():
        setup.append(import_seconds())
        calibration += [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]
        gc.collect()
        wall, outcomes = timed_pass(workload, seed)
        if not walls:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            virtual = sum(o.virtual for o in outcomes if o.virtual is not None)
        walls.append(wall)
        checker.add(outcomes)
    return setup, walls, calibration, virtual, peak_rss_mib


def measure_traced(workload, seed, seconds, checker):
    """The traced run: per-layer metrics of one workload."""
    start = time.perf_counter()
    calibration = [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]
    with layers.Spans() as spans:
        gc.collect()
        plain_wall, outcomes = timed_pass(workload, seed)
        checker.add(outcomes)
        span_seconds = dict(spans.seconds)
        tasks = sum(r.n_tasks for r in spans.kept["execute"])
        if not workload.metrics:
            spans.reset()
            gc.collect()
            with layers.metrics_forced_on():
                _, outcomes = timed_pass(workload, seed)
            checker.add(outcomes)
        counts = spans.counts()
        spans.reset()
        profiler = cProfile.Profile()
        traced_walls = []
        laps = Laps(seconds - (time.perf_counter() - start))
        while laps.another():
            gc.collect()
            wall, outcomes = timed_pass(workload, seed, profiler)
            traced_walls.append(wall)
            checker.add(outcomes)
            spans.reset()
    profiler.create_stats()
    values = {
        f"{layer}.self_share": share
        for layer, share in layers.self_shares(profiler.stats).items()
    }
    values.update(
        (f"span.{span}_share", span_seconds[span] / plain_wall)
        for span in layers.SPANS
    )
    values.update(counts)
    values["host_us_per_task"] = plain_wall * 1e6 / tasks if tasks else 0.0
    values["trace.overhead"] = statistics.median(traced_walls) / plain_wall
    values["host.calib_s"] = statistics.median(calibration)
    return values


def run_one(args) -> int:
    workload = specs.WORKLOADS[args.workload]
    checker = gate.Gate(workload, args.seed, gate.load_expected())
    print(
        f"perfbench {workload.name} seed={args.seed} "
        f"machine_variant={specs.machine_variant(args.seed)} trace={args.trace}"
    )
    if args.trace:
        values = measure_traced(workload, args.seed, args.seconds, checker)
        attempted, failed = checker.finish()
        metrics = {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in layers.METRICS.items()
        }
        for name, metric in metrics.items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    else:
        setup, walls, calibration, virtual, peak = measure(
            workload, args.seed, args.seconds, checker
        )
        attempted, failed = checker.finish()
        describe("setup_s", setup, "s", "cold import repro")
        describe("wall_s", walls, "s", "one pass")
        print(f"  {'peak_rss_mib':16s} {peak:.1f} MiB")
        print(f"  {'virtual_s':16s} {virtual!r} s")
        print(f"  {'ops_failed_frac':16s} {failed / attempted:.4f} fraction")
        describe("host.calib_s", calibration, "s", "calibration loop, context only")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
            "virtual_s": {"value": virtual, "unit": "s"},
        }
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; one summary table."""
    rows = []
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in specs.WORKLOADS:
        child = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    if not args.trace:
        print()
        header = ("workload", "setup_s", "wall_s", "peak_rss_mib", "virtual_s")
        print(f"{header[0]:12s}" + "".join(f"{h:>16s}" for h in header[1:]) + f"{'ops_failed_frac':>17s}")
        for name, result in rows:
            cells = [result["metrics"][h] for h in header[1:]]
            print(
                f"{name:12s}"
                + "".join(f"{c['value']:>12.5g} {c['unit']:3s}" for c in cells)
                + f"{result['failed'] / result['attempted']:>17.4f}"
            )
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*specs.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        parser.error(f"no simulator source in {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
