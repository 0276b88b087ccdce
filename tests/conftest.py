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
