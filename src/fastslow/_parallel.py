"""Every concurrency decision of the package: two maps, both in process on
one usable CPU.

``_fork_map(fn, tasks)`` runs independent tasks in forked children and the
caller (below).  ``_pipelined_map(fn, items, n_items, item_bytes)`` runs
``fn`` on one worker thread, one item behind a caller that produces the
items (its own docstring).  Both take the usable CPUs from ``_usable_cpus``.

``_fork_map(fn, tasks)`` is ``[fn(*t) for t in tasks]``.  With two or more
CPUs in ``os.sched_getaffinity(0)`` and ``os.fork``, it forks
``_worker_count(len(tasks)) - 1`` children and the calling process works as
one more worker; otherwise, and for a single task, the tasks run one after
another in this process.  The workers take the tasks one at a time, in
list order, from one queue: a pipe that holds a single baton, the index of
the next task to take.  A worker reads the baton, writes the next index
back and runs its task, so no two workers take the same task, and no
thread or process pool is started.  The caller keeps the first task for
itself, so a caller that wants its longest task run in its own process
(or measured there) puts it first.

The children inherit ``fn`` and ``tasks`` through the fork, so neither is
pickled: ``fn`` may be a closure over buffers built once in the caller, and
each child works in its own copy of them.  A child sends ``(index, ok,
result or exception)`` for each of its tasks back over its own pipe, as a
pickle after its length, and ends with ``os._exit``.  Between its own tasks
the caller drains the children's pipes: it reads what they hold and, where
a child has begun an outcome, the rest of it.  So a child whose outcome
does not fit the pipe (64 KiB) waits in its write for at most one of the
caller's tasks, not for the caller's whole share, and takes the next task
as soon as the outcome is read.  After its share the caller reads the
pipes to their ends and reaps the children.  The results are in ``tasks``
order, and a task's exception reaches the caller from the first failing
task in that order, as in one process (an exception raised in a child
keeps its type, message and attributes, not its traceback).  No child
outlives the call: one that ends before sending all its outcomes makes the
caller raise ``RuntimeError``, and on any error in the caller the children
still running are killed and reaped.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import select
import threading

_INT_BYTES = 8  # the baton's task index and an outcome's length
_READ_BYTES = 1 << 16


def _usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``), 1 where
    the platform does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in, the caller included; 1 runs
    them in this process.

    One per usable CPU and task, and only where children can be forked.
    """
    cpus = _usable_cpus()
    if min(n_tasks, cpus) < 2 or not hasattr(os, "fork"):
        return 1
    return min(n_tasks, cpus)


def _take(baton) -> int:
    """The index of the next task to run, off the baton pipe."""
    take, put = baton
    i = int.from_bytes(os.read(take, _INT_BYTES), "little")
    os.write(put, (i + 1).to_bytes(_INT_BYTES, "little"))
    return i


def _run_share(fn, tasks, baton, i: int):
    """From task ``i``, already taken, on: one worker's ``(index, ok, result
    or exception)`` outcomes, until no task is left."""
    while i < len(tasks):
        try:
            outcome = (i, True, fn(*tasks[i]))
        except Exception as exc:
            outcome = (i, False, exc)
        yield outcome
        i = _take(baton)


def _child(fn, tasks, baton, out: int, inherited: list):
    """A forked worker: closes the caller's descriptors it ``inherited``,
    runs its share, sends the outcomes over ``out`` and exits, with status 0
    only when every outcome was sent."""
    import signal

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        # an interrupt reaches the caller too, which kills its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(out, "wb") as sink:
            for i, ok, value in _run_share(fn, tasks, baton, _take(baton)):
                try:
                    record = pickle.dumps((i, ok, value))
                except Exception as exc:  # a result that cannot be pickled fails its task
                    record = pickle.dumps((i, False, exc))
                sink.write(len(record).to_bytes(_INT_BYTES, "little") + record)
                sink.flush()
        status = 0
    finally:
        os._exit(status)


class _Inbox:
    """The outcomes of one forked child as they come over its pipe: each
    a pickle after its length in _INT_BYTES bytes."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd = pid, fd
        self.open = True
        self.outcomes = []
        self._pending = bytearray()  # the start of an outcome not yet complete
        os.set_blocking(fd, False)

    def drain(self) -> None:
        """Reads what the pipe holds and, if an outcome has begun, waits
        for the rest of it: the child is then in its write, which ends."""
        while self.open:
            try:
                chunk = os.read(self.fd, _READ_BYTES)
            except BlockingIOError:
                if not self._pending:
                    return
                select.select([self.fd], [], [])
                continue
            if not chunk:
                self.open = False
                return
            self._pending += chunk
            self._unpack()

    def _unpack(self) -> None:
        # every complete outcome at the front of the pending bytes
        pending = self._pending
        while len(pending) >= _INT_BYTES:
            end = _INT_BYTES + int.from_bytes(pending[:_INT_BYTES], "little")
            if len(pending) < end:
                return
            self.outcomes.append(pickle.loads(pending[_INT_BYTES:end]))
            del pending[:end]


def _fork_map(fn, tasks) -> list:
    """``fn`` over the argument tuples ``tasks``, results in their order.

    With more than one worker the tasks are taken in list order by forked
    children and by the caller, which runs the first; a caller whose longest
    task is not the first reorders its list and its results.  No child
    outlives the call, whether it returns or raises.
    """
    tasks = list(tasks)
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(*t) for t in tasks]
    import signal  # on the parallel branch only, so importing the package does not load it

    baton = os.pipe()
    children = []  # the _Inbox of each child not yet reaped
    try:
        # the caller keeps the first task for itself
        os.write(baton[1], (1).to_bytes(_INT_BYTES, "little"))
        for _ in range(workers - 1):
            r, w = os.pipe()
            inherited = [r, *(child.fd for child in children)]
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, tasks, baton, w, inherited)  # never returns
            os.close(w)
            children.append(_Inbox(pid, r))
        outcomes = []
        for outcome in _run_share(fn, tasks, baton, 0):
            outcomes.append(outcome)
            for child in children:
                child.drain()
        while any(child.open for child in children):
            ready = select.select([child.fd for child in children if child.open], [], [])[0]
            for child in children:
                if child.fd in ready:
                    child.drain()
        while children:
            child = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
            del children[0]
            os.close(child.fd)
            if code != 0:
                how = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise RuntimeError(
                    f"worker process {child.pid} ended with {how} before sending back its tasks"
                )
            outcomes += child.outcomes
    finally:
        for child in children:
            os.close(child.fd)
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        os.close(baton[0])
        os.close(baton[1])
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


_NO_MORE = object()  # tells the worker thread of _pipelined_map that no item follows

# The smallest item worth a thread.  Below it the numpy calls on both sides
# are short, and the two threads wait on each other's GIL hand-overs: the
# CLI's rows of blocks of 8 samples took 31, 11 and 3 % longer on a thread
# than in line at N = 256, 1024 and 2048 (256 KiB), and 4 and 19 % less at
# N = 4096 and 8192 (512 KiB; 1000 steps in process on a 2-CPU host).
_PIPELINE_MIN_BYTES = 1 << 19


def _pipelined_map(fn, items, n_items: int, item_bytes: int) -> list:
    """``[fn(x) for x in items]``, with ``fn`` on a worker thread one item
    behind the caller, which draws the ``n_items`` items, of about
    ``item_bytes`` each, from the iterator ``items``.

    With two or more usable CPUs and items, and items of at least
    ``_PIPELINE_MIN_BYTES``, one worker thread applies ``fn`` to the items
    in order while the caller draws the next one, that is, runs the
    iterator's code; otherwise both run in turn in the caller.  Worth it
    only where ``fn`` and the iterator spend their time in long calls that
    release the GIL (numpy's FFT, large ufuncs).  The caller draws an
    item only while the worker holds at most the one before it, so an
    iterator that fills two buffers in turn never writes the one ``fn``
    reads; ``fn`` copies what it returns out of them.  The worker runs in a
    copy of the caller's ``contextvars`` context, so ``np.errstate`` applies
    in it too.

    The first failure in item order is raised, as in one thread: an
    exception from ``fn`` stops the drawing, and one from the iterator is
    raised after ``fn`` has finished the items drawn before it without
    failing.  The worker has ended when the call returns or raises.
    """
    if min(n_items, _usable_cpus()) < 2 or item_bytes < _PIPELINE_MIN_BYTES:
        return [fn(x) for x in items]
    import queue  # on the threaded branch only: importing the package does not load it

    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def work():
        while (item := todo.get()) is not _NO_MORE:
            try:
                done.put((True, fn(item)))
            except BaseException as exc:
                done.put((False, exc))

    results, sent = [], 0

    def collect():
        ok, value = done.get()
        if not ok:
            raise value
        results.append(value)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,), daemon=True)
    worker.start()
    try:
        items = iter(items)
        while True:
            if sent - len(results) == 2:
                collect()  # the item the next one may overwrite
            try:
                item = next(items)
            except StopIteration:
                break
            except BaseException:
                # the items drawn before come first in item order
                while len(results) < sent:
                    collect()
                raise
            todo.put(item)
            sent += 1
        while len(results) < sent:
            collect()
    finally:
        todo.put(_NO_MORE)
        worker.join()
    return results
