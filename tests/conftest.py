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
    """The (members, K) of every set of bands that ``integrator._time_loop``
    forms from here on, in order."""
    from fastslow import integrator

    formed, bands = [], integrator._bands

    def spy(*args):
        out = bands(*args)
        formed.append([(list(b.members), b.K) for b in out])
        return out

    monkeypatch.setattr(integrator, "_bands", spy)
    return formed
