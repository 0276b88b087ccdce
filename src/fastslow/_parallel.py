"""One map over independent tasks, shared by the caller and forked children.

``_fork_map(fn, tasks)`` is ``[fn(*t) for t in tasks]``.  With two or more
CPUs in ``os.sched_getaffinity(0)`` and ``os.fork``, it forks
``_worker_count(len(tasks)) - 1`` children and the calling process works as
one more worker; otherwise, and for a single task, the tasks run one after
another in this process.  The workers take the tasks one at a time, in
submit order, from one queue: a pipe that holds a single baton, the
position in that order of the next task to take.  A worker reads the
baton, writes the next position back and runs its task, so no two workers
take the same task, and no thread or process pool is started.  The caller
keeps the first task in submit order for itself.

The children inherit ``fn`` and ``tasks`` through the fork, so neither is
pickled: ``fn`` may be a closure over buffers built once in the caller, and
each child works in its own copy of them.  A child sends ``(index, ok,
result or exception)`` for each of its tasks back over its own pipe and
ends with ``os._exit``; the caller runs its share, then reads the
children's pipes and reaps them.  The results are in ``tasks`` order, and
a task's exception reaches the caller from the first failing task in that
order, as in one process (an exception raised in a child keeps its type,
message and attributes, not its traceback).  No child outlives the call:
one that ends before sending all its outcomes makes the caller raise
``RuntimeError``, and on any error in the caller the children still
running are killed and reaped.
"""

from __future__ import annotations

import io
import os
import pickle

_BATON_BYTES = 8


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in, the caller included; 1 runs
    them in this process.

    One per usable CPU and task, and only where children can be forked.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(n_tasks, cpus) < 2 or not hasattr(os, "fork"):
        return 1
    return min(n_tasks, cpus)


def _take(baton) -> int:
    """The position of the next task to run, off the baton pipe."""
    take, put = baton
    position = int.from_bytes(os.read(take, _BATON_BYTES), "little")
    os.write(put, (position + 1).to_bytes(_BATON_BYTES, "little"))
    return position


def _run_share(fn, tasks, order, baton, position: int):
    """From the task at ``position``, already taken, on: one worker's
    ``(index, ok, result or exception)`` outcomes, until no task is left."""
    while position < len(order):
        i = order[position]
        try:
            outcome = (i, True, fn(*tasks[i]))
        except Exception as exc:
            outcome = (i, False, exc)
        yield outcome
        position = _take(baton)


def _child(fn, tasks, order, baton, out: int, inherited: list):
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
            for i, ok, value in _run_share(fn, tasks, order, baton, _take(baton)):
                try:
                    record = pickle.dumps((i, ok, value))
                except Exception as exc:  # a result that cannot be pickled fails its task
                    record = pickle.dumps((i, False, exc))
                sink.write(record)
        status = 0
    finally:
        os._exit(status)


def _fork_map(fn, tasks, last_first: bool = False) -> list:
    """``fn`` over the argument tuples ``tasks``, results in their order.

    With more than one worker the tasks are taken in list order, or from the
    last task back with ``last_first`` (for a list whose last task takes
    longest), by forked children and by the caller; no child outlives the
    call, whether it returns or raises.
    """
    tasks = list(tasks)
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(*t) for t in tasks]
    import signal  # on the parallel branch only, so importing the package does not load it

    order = range(len(tasks))[::-1] if last_first else range(len(tasks))
    baton = os.pipe()
    children = []  # (pid, the file its outcomes come back on), not yet reaped
    try:
        # the caller keeps the first task for itself
        os.write(baton[1], (1).to_bytes(_BATON_BYTES, "little"))
        for _ in range(workers - 1):
            r, w = os.pipe()
            inherited = [r, *(source.fileno() for _, source in children)]
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, tasks, order, baton, w, inherited)  # never returns
            os.close(w)
            children.append((pid, open(r, "rb")))
        outcomes = list(_run_share(fn, tasks, order, baton, 0))
        while children:
            pid, source = children[0]
            with source:
                data = source.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0:
                how = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise RuntimeError(
                    f"worker process {pid} ended with {how} before sending back its tasks"
                )
            records = io.BytesIO(data)
            while records.tell() < len(data):
                outcomes.append(pickle.load(records))
    finally:
        for pid, source in children:
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(baton[0])
        os.close(baton[1])
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]
