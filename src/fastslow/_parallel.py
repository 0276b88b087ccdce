"""One map over independent tasks, run in forked worker processes.

``_fork_map(fn, tasks)`` is ``[fn(*t) for t in tasks]``.  With two or more
CPUs in ``os.sched_getaffinity(0)`` and the ``fork`` start method, the tasks
run in ``_worker_count(len(tasks))`` forked children; otherwise, and for a
single task, they run one after another in this process.  The children
inherit ``fn`` and ``tasks`` through the fork (``_job``), so neither is
pickled: ``fn`` may be a closure over buffers built once in the parent, and
each child works in its own copy of them.  Only the task's index goes to a
child and only its result, or the exception it raised, comes back.  The
results are in ``tasks`` order, and a task's exception reaches the caller
from the first failing task in that order, as in one process.

``multiprocessing`` and ``concurrent.futures`` are imported on the parallel
branch only, so importing the package does not load them.
"""

from __future__ import annotations

import os

# (fn, tasks) of the running _fork_map, set before its pool forks
_job = None


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in; 1 runs them in this process.

    One per usable CPU and task, and only where children can be forked.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(n_tasks, cpus) < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(n_tasks, cpus)


def _run_task(index: int):
    """In a forked child: the task ``index`` of the ``_job`` inherited from the parent."""
    fn, tasks = _job
    return fn(*tasks[index])


def _fork_map(fn, tasks, last_first: bool = False) -> list:
    """``fn`` over the argument tuples ``tasks``, results in their order.

    With more than one worker the tasks run in forked children, submitted
    in list order, or from the last task back with ``last_first`` (for a
    list whose last task takes longest); no child outlives the call,
    whether it returns or raises.
    """
    global _job
    tasks = list(tasks)
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [fn(*t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = range(len(tasks))
    submit_order = order[::-1] if last_first else order
    _job = (fn, tasks)
    try:
        # fork, not spawn: a spawned child would import numpy again (about
        # 0.15 s), build the transform caches again and not inherit a closure
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {i: pool.submit(_run_task, i) for i in submit_order}
            return [futures[i].result() for i in order]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        _job = None
