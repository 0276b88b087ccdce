"""Every concurrency decision of the package: one map, in process on one
usable CPU.

``_fork_map(fn, tasks)`` is ``[fn(*t) for t in tasks]``.  With two or more
CPUs in ``os.sched_getaffinity(0)`` and ``os.memfd_create`` (Linux), it
forks ``_worker_count(len(tasks)) - 1`` children and the calling process
works as one more worker; otherwise, and for a single task, the tasks run
one after another in this process.  The workers take the tasks one at a
time, in list order, from one queue: a pipe that holds a single baton, the
index of the next task to take.  A worker reads the baton, writes the next
index back and runs its task, so no two workers take the same task, and no
thread or process pool is started.  The caller keeps the first task for
itself, so a caller that wants its longest task run in its own process
(or measured there) puts it first.

The children inherit ``fn`` and ``tasks`` through the fork, so neither is
pickled: ``fn`` may be a closure over buffers built once in the caller, and
each child works in its own copy of them.  Each child writes ``(index, ok,
result or exception)`` for each of its tasks, as a pickle, to its own
anonymous memory file, which the caller made just before the fork, and ends
with ``os._exit``.  A write to a file never waits for a reader, so a child
takes its next task as soon as it has written an outcome, while the caller
works through its own share.  After its share the caller reaps each child
and loads its outcomes from the start of its file.  The results are in
``tasks`` order, and a task's exception reaches the caller from the first
failing task in that order, as in one process (an exception raised in a
child keeps its type, message and attributes, not its traceback).  No child
outlives the call: one that ends before writing all its outcomes makes the
caller raise ``RuntimeError``, and on any error in the caller the children
still running are killed and reaped.
"""

from __future__ import annotations

import os
import pickle

_INT_BYTES = 8  # the baton's task index


def _usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``), 1 where
    the platform does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in, the caller included; 1 runs
    them in this process.

    One per usable CPU and task, and only where children can be forked
    with a memory file each (``os.memfd_create``).
    """
    cpus = _usable_cpus()
    if min(n_tasks, cpus) < 2 or not hasattr(os, "memfd_create"):
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


def _child(fn, tasks, baton, out: int):
    """A forked worker: runs its share, writes the outcomes to the file
    ``out`` and exits, with status 0 only when every outcome was written."""
    import signal

    status = 1
    try:
        # an interrupt reaches the caller too, which kills its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(out, "wb") as sink:
            for i, ok, value in _run_share(fn, tasks, baton, _take(baton)):
                try:
                    record = pickle.dumps((i, ok, value))
                except Exception as exc:  # a result that cannot be pickled fails its task
                    record = pickle.dumps((i, False, exc))
                sink.write(record)
        status = 0
    finally:
        os._exit(status)


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
    children = []  # the pid and memory file of each child not yet reaped
    try:
        # the caller keeps the first task for itself
        os.write(baton[1], (1).to_bytes(_INT_BYTES, "little"))
        for _ in range(workers - 1):
            out = os.memfd_create("fastslow-outcomes")
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                raise
            if pid == 0:
                _child(fn, tasks, baton, out)  # never returns
            children.append((pid, out))
        outcomes = list(_run_share(fn, tasks, baton, 0))
        while children:
            pid, out = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            with open(out, "rb") as source:
                if code != 0:
                    how = f"exit status {code}" if code > 0 else f"signal {-code}"
                    raise RuntimeError(
                        f"worker process {pid} ended with {how} before writing all its outcomes"
                    )
                # the child's writes moved the offset it shares with the caller
                source.seek(0)
                end = os.fstat(out).st_size
                while source.tell() < end:
                    outcomes.append(pickle.load(source))
    finally:
        for pid, out in children:
            os.close(out)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(baton[0])
        os.close(baton[1])
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]

