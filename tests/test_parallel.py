import os

import numpy as np
import pytest

from effdim._parallel import FORK, parallel_map, processes
from effdim.linalg import LimitExceeded

needs_fork = pytest.mark.skipif(not FORK, reason="parallel_map forks on Linux only")


@pytest.fixture(autouse=True)
def four_cpus_and_no_child_left(monkeypatch):
    # Four usable CPUs whatever the machine has, so every map below with
    # jobs > 1 and more than one item forks; afterwards no child is left,
    # running or unreaped.
    if FORK:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 5, 7])
def test_order_and_values_match_a_serial_map(jobs, n_items):
    items = [(i, np.arange(i, dtype=float)) for i in range(n_items)]
    out = parallel_map(lambda item: (item[0], float(item[1].sum()) ** 0.5), items, jobs)
    assert out == [(i, float(np.arange(i).sum()) ** 0.5) for i in range(n_items)]


@needs_fork
def test_workers_run_interleaved_shares_and_the_caller_runs_share_0():
    pids = parallel_map(lambda _: os.getpid(), range(7), 3)
    assert pids[0::3] == [os.getpid()] * 3
    assert len({*pids[1::3]}) == len({*pids[2::3]}) == 1
    assert len({pids[0], pids[1], pids[2]}) == 3


@needs_fork
def test_large_results_come_back_through_the_pipe():
    # Each worker result is far beyond a pipe's 64 KiB buffer.
    out = parallel_map(lambda i: np.full(100_000, i, dtype=float), range(5), 3)
    assert [a.shape for a in out] == [(100_000,)] * 5
    assert [a[0] for a in out] == list(range(5))


@needs_fork
@pytest.mark.parametrize("error", [LimitExceeded, FloatingPointError])
def test_worker_failure_keeps_its_type_and_sends_its_traceback(error):
    def task(i):
        if i == 3:
            raise error(f"task {i} in pid {os.getpid()}")
        return i

    with pytest.raises(error, match="task 3") as info:
        parallel_map(task, range(6), 2)
    assert str(os.getpid()) not in str(info.value)
    cause = str(info.value.__cause__)
    assert "Traceback (most recent call last)" in cause and "in task" in cause


@needs_fork
def test_the_lowest_failing_index_wins_as_in_a_serial_map():
    # At jobs 2 the caller runs the even indices and the worker the odd
    # ones.  Whichever share holds the first failing index, the map raises
    # that failure, as a serial map would.
    def task(i):
        if i == 1:
            raise LimitExceeded("item 1")
        if i == 2:
            raise OverflowError("item 2")
        return i

    with pytest.raises(LimitExceeded, match="item 1"):
        parallel_map(task, range(4), 2)
    with pytest.raises(OverflowError, match="item 2") as info:
        parallel_map(task, [0, 5, 2, 1], 2)
    assert info.value.__cause__ is None


@needs_fork
def test_a_worker_that_dies_mid_task_names_its_exit_status():
    def task(i):
        if i == 1:
            os._exit(7)
        return i

    with pytest.raises(RuntimeError, match="status 7"):
        parallel_map(task, range(4), 2)


@needs_fork
def test_a_worker_that_cannot_send_its_share_exits_1_with_its_traceback(capfd):
    with pytest.raises(RuntimeError, match="status 1"):
        parallel_map(lambda i: lambda: i, range(4), 2)
    assert "Can't pickle" in capfd.readouterr().err


@needs_fork
def test_errstate_holds_inside_workers():
    def task(i):
        return np.geterr()["over"], float(np.float64(10.0) ** (300 + i))

    with np.errstate(over="raise"):
        assert parallel_map(lambda i: np.geterr()["over"], range(4), 2) == ["raise"] * 4
        with pytest.raises(FloatingPointError, match="overflow"):
            parallel_map(task, range(16), 2)


@needs_fork
@pytest.mark.parametrize("cpus, n_items, forks", [(3, 8, 2), (64, 3, 2)])
def test_workers_are_capped_by_cpus_and_items(monkeypatch, cpus, n_items, forks):
    calls = []

    def spy():
        calls.append(None)
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", spy)
    assert parallel_map(lambda i: i, range(n_items), 10**6) == list(range(n_items))
    assert len(calls) == forks == processes(10**6, n_items) - 1
