"""Recovery tests for the self-healing sweep executor.

The contract under test: worker death, hung cells, and poisoned cells
must not abort a pooled sweep — the pool respawns, innocent in-flight
cells are requeued, and the merged output for every healthy cell stays
byte-identical to the serial sweep. ``on_error="record"`` degrades an
unrunnable cell to an explicit :class:`CellError` instead of failing
the whole grid.
"""

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import sweep
from repro.experiments.sweep import (
    CellError,
    CellTimeoutError,
    PoisonedCellError,
    RetryPolicy,
    SweepCell,
    SweepExecutor,
)
from repro.util.backoff import capped_exponential
from repro.util.errors import ConfigurationError


# -- cell bodies (module-level so the pool pickles them by reference) --
def _square(x):
    return x * x


def _kill_once(x, flag_dir):
    """SIGKILL the worker on the first attempt, then behave."""
    flag = os.path.join(flag_dir, f"killed-{x}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _kill_always(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(x, flag_dir):
    """Hang far past any test deadline on the first attempt only."""
    flag = os.path.join(flag_dir, f"hung-{x}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        time.sleep(120)
    return x * x


def _hang_always(x):
    time.sleep(120)


def _boom(x):
    raise ValueError(f"cell {x} exploded")


FAST_RETRY = RetryPolicy(retries=2, base_delay_s=0.0, max_delay_s=0.0)


def _cells(n, fn=_square, **extra):
    return [SweepCell(key=(i,), fn=fn, kwargs={"x": i, **extra}) for i in range(n)]


class TestWorkerDeathRecovery:
    def test_killed_worker_is_respawned_and_merge_matches_serial(self, tmp_path):
        """The satellite regression: kill a worker mid-sweep, output is
        byte-identical to the serial sweep."""
        serial, _ = SweepExecutor(jobs=1).run(_cells(6))
        cells = _cells(6, fn=_kill_once, flag_dir=str(tmp_path))
        parallel, stats = SweepExecutor(jobs=2, retry=FAST_RETRY).run(cells)
        assert parallel == serial
        assert stats.pool_kills >= 1
        assert stats.retries >= 1
        assert not stats.cell_errors

    def test_poisoned_cell_raises_by_default(self):
        cells = [
            SweepCell(key=("ok",), fn=_square, kwargs={"x": 3}),
            SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0}),
        ]
        with pytest.raises(PoisonedCellError, match="bad"):
            SweepExecutor(jobs=2, retry=FAST_RETRY).run(cells)

    def test_poisoned_cell_recorded_and_healthy_cells_identical(self):
        """One poisoned cell degrades the sweep to a partial result;
        every healthy cell still matches the serial sweep exactly."""
        serial, _ = SweepExecutor(jobs=1).run(_cells(5))
        cells = _cells(5) + [
            SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0})
        ]
        results, stats = SweepExecutor(
            jobs=2, retry=FAST_RETRY, on_error="record"
        ).run(cells)
        error = results[("bad",)]
        assert isinstance(error, CellError)
        assert error.kind == "poisoned"
        assert error.attempts >= 2  # killed workers at least twice
        healthy = {k: v for k, v in results.items() if k != ("bad",)}
        assert healthy == serial
        assert stats.cell_errors == {"bad": "poisoned"}
        assert list(results) == [(i,) for i in range(5)] + [("bad",)]

    def test_break_raised_by_submit_takes_the_respawn_path(self, monkeypatch):
        """CPython raises BrokenProcessPool from ``submit`` itself when a
        worker died while the window refills; that break must respawn
        the pool and re-run the in-flight suspects, like a break seen
        on a result."""

        class BreaksOnThirdSubmit(ProcessPoolExecutor):
            submits = 0

            def submit(self, fn, /, *args, **kwargs):
                BreaksOnThirdSubmit.submits += 1
                if BreaksOnThirdSubmit.submits == 3:
                    raise BrokenProcessPool("worker died during refill")
                return super().submit(fn, *args, **kwargs)

        serial, _ = SweepExecutor(jobs=1).run(_cells(6))
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", BreaksOnThirdSubmit)
        parallel, stats = SweepExecutor(jobs=3, retry=FAST_RETRY).run(_cells(6))
        assert parallel == serial
        assert stats.pool_kills == 1
        assert not stats.cell_errors
        # the two cells in flight at the break re-run as suspects
        assert stats.retries == 2

    def test_partial_result_at_higher_job_counts(self):
        serial, _ = SweepExecutor(jobs=1).run(_cells(8))
        for jobs in (2, 4):
            cells = [SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0})]
            cells += _cells(8)
            results, _ = SweepExecutor(
                jobs=jobs, retry=FAST_RETRY, on_error="record"
            ).run(cells)
            assert results[("bad",)].kind == "poisoned"
            assert {k: v for k, v in results.items() if k != ("bad",)} == serial


class TestDeadlines:
    def test_hung_cell_is_killed_and_retried(self, tmp_path):
        serial, _ = SweepExecutor(jobs=1).run(_cells(4))
        cells = _cells(4, fn=_hang_once, flag_dir=str(tmp_path))
        results, stats = SweepExecutor(
            jobs=2, timeout=2.0, retry=FAST_RETRY
        ).run(cells)
        assert results == serial
        assert stats.pool_kills >= 1

    def test_always_hanging_cell_times_out(self):
        cells = [SweepCell(key=("hang",), fn=_hang_always, kwargs={"x": 0}),
                 SweepCell(key=(1,), fn=_square, kwargs={"x": 1})]
        results, stats = SweepExecutor(
            jobs=2, timeout=1.0, retry=RetryPolicy(retries=1, base_delay_s=0.0),
            on_error="record",
        ).run(cells)
        error = results[("hang",)]
        assert isinstance(error, CellError)
        assert error.kind == "timeout"
        assert error.attempts == 2  # initial run + one retry
        assert results[(1,)] == 1

    def test_timeout_raises_by_default(self):
        cells = [SweepCell(key=("hang",), fn=_hang_always, kwargs={"x": 0}),
                 SweepCell(key=(1,), fn=_square, kwargs={"x": 1})]
        with pytest.raises(CellTimeoutError, match="hang"):
            SweepExecutor(
                jobs=2, timeout=1.0,
                retry=RetryPolicy(retries=0, base_delay_s=0.0),
            ).run(cells)


class TestErrorRecording:
    def test_exception_recorded_when_requested(self):
        cells = [SweepCell(key=(1,), fn=_square, kwargs={"x": 1}),
                 SweepCell(key=("boom",), fn=_boom, kwargs={"x": 2})]
        results, stats = SweepExecutor(jobs=2, on_error="record").run(cells)
        assert results[(1,)] == 1
        assert results[("boom",)].kind == "exception"
        assert "exploded" in results[("boom",)].message
        assert stats.cell_errors == {"boom": "exception"}

    def test_exception_recorded_serially_too(self):
        cells = [SweepCell(key=(1,), fn=_square, kwargs={"x": 1}),
                 SweepCell(key=("boom",), fn=_boom, kwargs={"x": 2})]
        results, _ = SweepExecutor(jobs=1, on_error="record").run(cells)
        assert results[(1,)] == 1
        assert results[("boom",)].kind == "exception"

    def test_exception_still_raises_by_default(self):
        cells = [SweepCell(key=(2,), fn=_boom, kwargs={"x": 2})]
        with pytest.raises(ValueError, match="exploded"):
            SweepExecutor(jobs=1).run(cells)

    def test_cell_error_serializes(self):
        error = CellError(key=("a",), label="a", kind="timeout",
                          message="deadline", attempts=3)
        assert error.to_dict() == {
            "label": "a", "kind": "timeout",
            "message": "deadline", "attempts": 3,
        }


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        assert policy.delay(0) == 0.1
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(10) == 1.0
        assert policy.delay(100_000) == 1.0  # no float overflow

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_pool_kills=0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2, timeout=0.0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2, on_error="explode")

    def test_capped_exponential_edge_cases(self):
        assert capped_exponential(0.0, 5, 1.0) == 0.0
        assert capped_exponential(-1.0, 5, 1.0) == 0.0
        assert capped_exponential(1e-5, 2000, 0.5) == 0.5
        assert capped_exponential(1e300, 10, 7.0) == 7.0  # inf intermediate

    def test_stats_summary_mentions_recovery(self):
        from repro.experiments.sweep import SweepStats

        stats = SweepStats(label="s", jobs=2, n_cells=3, wall_s=1.0,
                           retries=2, pool_kills=1,
                           cell_errors={"bad": "poisoned"})
        assert "2 retries" in stats.summary()
        assert "1 pool kills" in stats.summary()
        report = stats.to_report()
        assert report.extra["retries"] == 2
        assert report.extra["cell_errors"] == {"bad": "poisoned"}
