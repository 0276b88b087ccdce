import os

import pytest


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def no_child_left():
    """A check that this process has no child, running or unreaped; unlike
    ``multiprocessing.active_children`` it sees children of a raw ``os.fork``."""
    return _no_child_left


@pytest.fixture
def threads_started(monkeypatch):
    """The threads started from here on; at the end, none of them is left."""
    import threading

    started, start = [], threading.Thread.start
    before = threading.active_count()

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    yield started
    assert threading.active_count() == before


@pytest.fixture
def bands_formed(monkeypatch):
    """The K of every ``integrator._Band`` that ``integrator._time_loop``
    forms from here on, in order."""
    from fastslow import integrator

    formed, band = [], integrator._Band

    def spy(*args):
        out = band(*args)
        formed.append(out.K)
        return out

    monkeypatch.setattr(integrator, "_Band", spy)
    return formed
