"""The fork map: task order, the caller's share, errors and clean-up; and
the rows of ``simulate`` and ``limit``, reduced in line at any CPU count.

Each test sets the worker count (or the usable CPUs) itself, so the map
forks on one CPU too (``taskset -c 0``), where the workers and the caller
take turns.
"""

import math
import os
import time

import numpy as np
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
@pytest.mark.parametrize("n_tasks", [1, 2, 9])
def test_results_come_back_in_task_order(workers, n_tasks, no_child_left):
    # with fewer tasks than workers, the children left without one send nothing
    tasks = [(i,) for i in range(n_tasks)]
    assert _fork_map(nap, tasks) == [i * i for i in range(n_tasks)]
    assert no_child_left()


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_the_caller_runs_the_first_task(workers, no_child_left):
    def where(i):
        time.sleep(0.02)
        return os.getpid()

    pids = _fork_map(where, [(i,) for i in range(8)])
    assert pids[0] == os.getpid()
    assert len(set(pids)) <= workers
    assert no_child_left()


@pytest.mark.parametrize("workers", [2], indirect=True)
@pytest.mark.parametrize("first", [0, 1], ids=["in the caller", "in a child"])
def test_first_failing_task_in_order_wins(workers, tmp_path, first, no_child_left):
    # the caller takes task 0 and the child task 1; the tasks before
    # ``first`` succeed and the others fail, ``first`` 0.2 s after the rest
    # (with first = 1, after task 2, which the caller takes next), and its
    # exception is the one raised
    log = tmp_path / "log"

    def fail(i):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{i} {os.getpid()}\n")
        wait_for_lines(log, 2)
        if i < first:
            return i
        if i == first:
            time.sleep(0.2)
        raise Boom(f"task {i}")

    with pytest.raises(Boom, match=rf"^task {first}$"):
        _fork_map(fail, [(i,) for i in range(first + 2)])
    ran = dict(line.split() for line in log.read_text().splitlines())
    assert (ran[str(first)] == str(os.getpid())) == (first == 0)
    assert no_child_left()


class Unpicklable:
    def __reduce__(self):
        raise TypeError("cannot pickle this result")


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_a_result_a_child_cannot_pickle_fails_its_task(workers, tmp_path, no_child_left):
    # every worker takes one task; only the children's results are pickled,
    # so task 0, the caller's, succeeds and task 1 is the first to fail
    caller, log = os.getpid(), tmp_path / "log"

    def result(i):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{i}\n")
        wait_for_lines(log, workers)
        return i if os.getpid() == caller else Unpicklable()

    with pytest.raises(TypeError, match=r"^cannot pickle this result$"):
        _fork_map(result, [(i,) for i in range(workers)])
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
    # 20 000 outcomes, most of them written to the children's files while
    # the caller works through its own share
    n = 20_000
    assert _fork_map(int.__neg__, [(i,) for i in range(n)]) == [-i for i in range(n)]
    assert no_child_left()


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_child_takes_tasks_while_the_caller_works_through_its_own(
    workers, tmp_path, no_child_left
):
    # the caller's first task waits until the child has run three tasks,
    # each with a 1 MiB result, more than a pipe holds unread: the child
    # writes its outcomes without waiting for the caller to read them
    caller, log = os.getpid(), tmp_path / "log"

    def task(i):
        if os.getpid() != caller:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{i}\n")
            return bytes(1 << 20)
        if i == 0:
            deadline = time.monotonic() + 10.0
            while not log.exists() or log.read_text().count("\n") < 3:
                assert time.monotonic() < deadline, "the child did not run three tasks"
                time.sleep(0.005)
        return i

    results = _fork_map(task, [(i,) for i in range(8)])
    in_the_child = {int(i) for i in log.read_text().split()}
    assert len(in_the_child) >= 3
    assert results == [bytes(1 << 20) if i in in_the_child else i for i in range(8)]
    assert no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
@pytest.mark.parametrize("workers", [3], indirect=True)
def test_no_descriptor_stays_open(workers, tmp_path, no_child_left):
    # a fork map that succeeds, one whose children exit with status 3 and
    # one whose caller is interrupted each close every pipe and file they open
    caller = os.getpid()
    before = sorted(os.listdir("/proc/self/fd"))

    def die_in_a_child(i):
        if os.getpid() != caller:
            with open(tmp_path / "died", "a", encoding="ascii") as fh:
                fh.write(f"{i}\n")
            os._exit(3)
        wait_for_lines(tmp_path / "died", workers - 1)
        return i

    def interrupt_in_the_caller(i):
        if os.getpid() == caller:
            wait_for_lines(tmp_path / "asleep", workers - 1)
            raise KeyboardInterrupt
        with open(tmp_path / "asleep", "a", encoding="ascii") as fh:
            fh.write(f"{i}\n")
        time.sleep(10.0)

    assert _fork_map(nap, [(i,) for i in range(6)]) == [i * i for i in range(6)]
    with pytest.raises(RuntimeError, match="exit status 3"):
        _fork_map(die_in_a_child, [(i,) for i in range(4)])
    with pytest.raises(KeyboardInterrupt):
        _fork_map(interrupt_in_the_caller, [(i,) for i in range(6)])
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert no_child_left()


# ---------------------------------------------------------------------------
# the rows of simulate and limit: a block reduced as soon as it is full


@pytest.fixture
def cpus(monkeypatch, request, threads_started):
    # threads_started checks that no thread is left
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
@pytest.mark.parametrize(
    "fn_fails, items_fail, raised",
    [(1, None, "fn 1"), (None, 3, "items 3"), (1, 3, "fn 1"), (2, 3, "fn 2")],
)
def test_the_first_failure_in_item_order_wins(
    monkeypatch, cpus, threads_started, fn_fails, items_fail, raised
):
    # the items are the solver's blocks of samples and fn their rows: the
    # rows of block i are reduced before the first sample of block i + 1
    # is drawn, on the caller's thread at one usable CPU and at two
    from fastslow import cli
    from fastslow.spectral_core import build_grid

    grid = build_grid(math.pi, 32)
    length = cli._block_len(grid)

    def samples():
        for i in range(6 * length):
            if items_fail is not None and i == items_fail * length:
                raise Boom(f"items {i // length}")
            yield float(i), np.zeros((2, grid.N))

    reduced = []
    block_rows = cli._block_rows

    def fn(grid, block, work):
        reduced.append(block[0][0] // length)
        if reduced[-1] == fn_fails:
            raise Boom(f"fn {fn_fails}")
        return block_rows(grid, block, work)

    monkeypatch.setattr(cli, "_block_rows", fn)
    with pytest.raises(Boom, match=raised):
        cli._sample_series(grid, 6 * length, samples())
    # every block before the failure, and the block that failed in fn
    last = fn_fails if raised.startswith("fn") else items_fail - 1
    assert reduced == list(range(last + 1))
    assert threads_started == []
