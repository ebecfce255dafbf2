"""The coordinator watchdog: dead and hung workers fail loudly.

The forked-shard coordinator used to issue a blind ``recv()`` per
worker per operation, so a worker that was killed (OOM killer, an
operator's stray ``kill``) or simply wedged would deadlock the whole
campaign — every surviving process parked on a pipe that would never
fill.  These tests kill and hang real workers mid-barrier and assert
the coordinator raises :class:`ShardWorkerError` naming the lost shard
and the operation, terminates the stragglers, and leaves no orphan
processes behind.
"""

import os
import signal
import time

import pytest

from repro.core.study import StudyConfig
from repro.errors import ShardError, ShardWorkerError
from repro.shard.runner import DEFAULT_OP_TIMEOUT, ProcessExecutor, WorkerSpec


def _specs(count: int) -> list:
    config = StudyConfig(warmup_days=2, study_days=4)
    return [
        WorkerSpec(
            shard_index=index,
            shard_count=count,
            population=60,
            seed=7,
            config=config,
        )
        for index in range(count)
    ]


def _sleep_forever(connection) -> None:
    """A worker stand-in that joins the lockstep and never answers."""
    time.sleep(600)


@pytest.fixture
def executor():
    ex = ProcessExecutor(_specs(2), op_timeout=30.0)
    ex.start()
    yield ex
    ex.close(force=True)


class TestDeadWorker:
    def test_sigkilled_worker_raises_named_error(self, executor):
        executor.call_all("barrier", 0)
        os.kill(executor._processes[1].pid, signal.SIGKILL)
        executor._processes[1].join(timeout=10)
        with pytest.raises(ShardWorkerError) as excinfo:
            executor.call_all("collect")
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "died mid-protocol" in message
        assert "'collect'" in message

    def test_survivors_are_terminated_not_orphaned(self, executor):
        executor.call_all("barrier", 0)
        survivor = executor._processes[0]
        os.kill(executor._processes[1].pid, signal.SIGKILL)
        executor._processes[1].join(timeout=10)
        with pytest.raises(ShardWorkerError):
            executor.call_all("collect")
        # close(force=True) already ran inside the refusal; the healthy
        # worker must be gone too, not leaked to wedge a later run.
        assert not survivor.is_alive()
        assert executor._processes == []

    def test_error_is_a_shard_error(self):
        # Callers that already catch ShardError (the kill matrix, the
        # CLI) must see the watchdog's refusal through the same net.
        assert issubclass(ShardWorkerError, ShardError)


class TestHungWorker:
    def _hung_executor(self, op_timeout: float) -> ProcessExecutor:
        """An executor whose single 'worker' never answers.

        Built by hand: a real ShardWorker cannot be made to hang
        deterministically, so the lockstep's pipe is wired to a process
        that sleeps forever — exactly what the coordinator sees when a
        worker wedges mid-operation.
        """
        ex = ProcessExecutor.__new__(ProcessExecutor)
        ex._specs = _specs(1)
        ex._op_timeout = op_timeout
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_sleep_forever, args=(child_end,), daemon=True
        )
        process.start()
        child_end.close()
        ex._processes = [process]
        ex._connections = [parent_end]
        return ex

    def test_straggler_is_terminated_and_named(self):
        ex = self._hung_executor(op_timeout=0.5)
        try:
            with pytest.raises(ShardWorkerError) as excinfo:
                ex.call_all("collect")
            message = str(excinfo.value)
            assert "shard 0" in message
            assert "did not answer within 0.5s" in message
        finally:
            ex.close(force=True)

    def test_default_timeout_is_generous(self):
        # The deadline guards against workers that are *gone*, not
        # workers that are slow: a full shard day at study scale must
        # fit comfortably inside it.
        assert DEFAULT_OP_TIMEOUT >= 60.0


class TestHealthyLockstep:
    def test_watchdog_never_fires_on_a_healthy_campaign(self, executor):
        # Drive one full barrier+collect+advance round with the
        # watchdog armed; a correct lockstep never trips it.
        executor.call_all("barrier", 0)
        executor.call_all("collect")
        executor.call_all("advance")
        executor.call_all("barrier", 1)


class TestForcedClose:
    def test_forced_close_of_healthy_workers_is_prompt(self, executor):
        # Forked workers inherit the coordinator's pipe ends, so closing
        # them never reads as EOF in a worker; a forced close must
        # terminate rather than wait out a join timeout per worker.
        executor.call_all("barrier", 0)
        processes = list(executor._processes)
        started = time.monotonic()
        executor.close(force=True)
        assert time.monotonic() - started < 2.0
        assert not any(process.is_alive() for process in processes)
        assert executor._processes == []
