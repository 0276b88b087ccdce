"""The fork map: task order, the caller's share, errors and clean-up.

Each test sets the worker count itself, so the map forks on one CPU too
(``taskset -c 0``), where the children and the caller take turns.
"""

import os
import time

import pytest

from fastslow import _parallel
from fastslow._parallel import _fork_map


class Boom(Exception):
    pass


def nap(i):
    # long enough for every worker to take a task
    time.sleep(0.02)
    return i * i


@pytest.fixture
def workers(monkeypatch, request):
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: request.param)
    return request.param


def wait_for_lines(path, count):
    # a barrier: every worker has taken its task
    deadline = time.monotonic() + 30.0
    while not path.exists() or path.read_text().count("\n") < count:
        assert time.monotonic() < deadline, "the workers did not all take a task"
        time.sleep(0.005)


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("last_first", [False, True])
def test_results_come_back_in_task_order(workers, last_first, no_child_left):
    tasks = [(i,) for i in range(9)]
    assert _fork_map(nap, tasks, last_first=last_first) == [i * i for i in range(9)]
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("last_first", [False, True])
def test_the_caller_runs_the_first_task_it_submits(workers, last_first, no_child_left):
    def where(i):
        time.sleep(0.02)
        return os.getpid()

    pids = _fork_map(where, [(i,) for i in range(8)], last_first=last_first)
    assert pids[-1 if last_first else 0] == os.getpid()
    assert len(set(pids)) <= workers
    assert no_child_left()


@pytest.mark.parametrize("workers", [2], indirect=True)
@pytest.mark.parametrize(
    "last_first", [False, True], ids=["task 0 in the caller", "task 0 in a child"]
)
def test_first_failing_task_in_order_wins(workers, tmp_path, last_first, no_child_left):
    # the caller takes position 0 and the child position 1, so task 0 runs
    # in the caller, or with last_first in the child; it fails 0.2 s after
    # task 1, and its exception is the one raised
    log = tmp_path / "log"

    def fail(i):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{i} {os.getpid()}\n")
        wait_for_lines(log, 2)
        if i == 0:
            time.sleep(0.2)
        raise Boom(f"task {i}")

    with pytest.raises(Boom, match=r"^task 0$"):
        _fork_map(fail, [(0,), (1,)], last_first=last_first)
    ran = dict(line.split() for line in log.read_text().splitlines())
    assert (ran["0"] == str(os.getpid())) != last_first
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_a_child_that_dies_mid_task_is_an_error(workers, tmp_path, no_child_left):
    # the caller waits in its task until every child has taken one and died
    caller, log = os.getpid(), tmp_path / "log"

    def die_in_a_child(i):
        if os.getpid() != caller:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{i}\n")
            os._exit(3)
        wait_for_lines(log, workers - 1)
        return i

    with pytest.raises(RuntimeError, match="exit status 3"):
        _fork_map(die_in_a_child, [(i,) for i in range(4)])
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_an_interrupt_in_the_caller_kills_the_children(workers, tmp_path, no_child_left):
    # the caller is interrupted while every child is still in its task
    caller, log = os.getpid(), tmp_path / "log"

    def interrupt_in_the_caller(i):
        if os.getpid() == caller:
            wait_for_lines(log, workers - 1)
            raise KeyboardInterrupt
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{i}\n")
        time.sleep(10.0)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _fork_map(interrupt_in_the_caller, [(i,) for i in range(6)])
    assert time.monotonic() - start < 5.0
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_many_trivial_tasks_complete(workers, no_child_left):
    # 20 000 outcomes overfill a 64 KB pipe, so the children wait for the
    # caller to read them while it works through its own share
    n = 20_000
    assert _fork_map(int.__neg__, [(i,) for i in range(n)]) == [-i for i in range(n)]
    assert no_child_left()
