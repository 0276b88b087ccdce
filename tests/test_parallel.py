"""The fork map: task order, the caller's share, errors and clean-up; and
the pipelined thread map: item order, its buffers, errors, its context.

Each test sets the worker count (or the usable CPUs) itself, so the maps
fork or start their thread on one CPU too (``taskset -c 0``), where the
workers and the caller take turns.
"""

import os
import select
import time

import pytest

from fastslow import _parallel
from fastslow._parallel import _fork_map, _pipelined_map


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
    # 20 000 outcomes overfill a 64 KB pipe, so the children wait for the
    # caller to read them while it works through its own share
    n = 20_000
    assert _fork_map(int.__neg__, [(i,) for i in range(n)]) == [-i for i in range(n)]
    assert no_child_left()


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_child_takes_tasks_while_the_caller_works_through_its_own(
    workers, monkeypatch, tmp_path, no_child_left
):
    # the child's outcome (1 MiB) overfills its pipe.  The caller's first
    # task waits until that outcome has begun to arrive, and its second
    # until the child has started a second task, which the child can only
    # do once the caller has read the outcome: between its own tasks
    caller, log = os.getpid(), tmp_path / "log"
    inboxes = []

    class Inbox(_parallel._Inbox):
        def __init__(self, *args):
            super().__init__(*args)
            inboxes.append(self)

    monkeypatch.setattr(_parallel, "_Inbox", Inbox)

    def task(i):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != caller:
            return bytes(1 << 20)
        mine = log.read_text().split().count(str(caller))
        if mine == 1:
            select.select([inboxes[0].fd], [], [])
        else:
            deadline = time.monotonic() + 30.0
            while len(log.read_text().split()) - mine < 2:
                assert time.monotonic() < deadline, "the child took no second task"
                time.sleep(0.005)
        return i

    results = _fork_map(task, [(i,) for i in range(4)])
    in_the_caller = [r == i for i, r in enumerate(results)]
    assert in_the_caller[0] and in_the_caller.count(False) >= 2
    assert all(r == bytes(1 << 20) for r, here in zip(results, in_the_caller) if not here)
    assert no_child_left()


# ---------------------------------------------------------------------------
# the pipelined thread map


BIG = _parallel._PIPELINE_MIN_BYTES  # items worth a thread


@pytest.fixture
def cpus(monkeypatch, request, threads_started):
    # threads_started checks that the worker has ended
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
@pytest.mark.parametrize("n_items", [0, 1, 2, 5])
def test_pipelined_results_come_back_in_item_order(cpus, n_items):
    assert _pipelined_map(int.__neg__, iter(range(n_items)), n_items, BIG) == [
        -i for i in range(n_items)
    ]


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
@pytest.mark.parametrize("n_items", [1, 3])
@pytest.mark.parametrize("item_bytes", [BIG - 1, BIG])
def test_a_thread_starts_only_for_two_cpus_and_items_of_the_least_size(
    cpus, n_items, item_bytes, threads_started
):
    import threading

    def where(i):
        return threading.get_ident()

    idents = _pipelined_map(where, iter(range(n_items)), n_items, item_bytes)
    assert len(threads_started) == (cpus > 1 and n_items > 1 and item_bytes >= BIG)
    assert (threading.get_ident() not in idents) == bool(threads_started)


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_an_iterator_of_two_buffers_in_turn_is_never_read_while_written(cpus):
    # fn is slow and reads its buffer twice: a buffer that the iterator
    # overwrote in between would show as two different halves.  A short
    # switch interval makes the threads take turns often
    import sys

    buffers = [[None, None], [None, None]]

    def items():
        for i in range(200):
            buf = buffers[i % 2]
            buf[0] = buf[1] = i
            yield buf

    def fn(buf):
        first = buf[0]
        time.sleep(0.002)
        return first, buf[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _pipelined_map(fn, items(), 200, BIG) == [(i, i) for i in range(200)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
@pytest.mark.parametrize(
    "fn_fails, items_fail, raised",
    [(1, None, "fn 1"), (None, 3, "items 3"), (1, 3, "fn 1"), (2, 3, "fn 2")],
)
def test_the_first_failure_in_item_order_wins(cpus, fn_fails, items_fail, raised):
    # as in one thread: fn(i) runs before item i + 1 is drawn
    def items():
        for i in range(6):
            if i == items_fail:
                raise Boom(f"items {i}")
            yield i

    def fn(i):
        time.sleep(0.002)
        if i == fn_fails:
            raise Boom(f"fn {i}")
        return i

    with pytest.raises(Boom, match=raised):
        _pipelined_map(fn, items(), 6, BIG)


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_the_pipelined_worker_runs_in_the_callers_context(cpus):
    # np.errstate is a context variable: a thread started without the
    # caller's context would compute inf and warn instead of raising
    import threading

    import numpy as np

    def where(x):
        return threading.get_ident(), np.geterr()["over"], x * 10.0

    with np.errstate(over="raise"):
        out = _pipelined_map(where, iter([1.0, 2.0]), 2, BIG)
        assert [(mode, value) for _, mode, value in out] == [("raise", 10.0), ("raise", 20.0)]
        assert threading.get_ident() not in [ident for ident, _, _ in out]
        with pytest.raises(FloatingPointError):
            _pipelined_map(where, iter([np.float64(1e308)] * 2), 2, BIG)
