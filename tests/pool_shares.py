"""Share functions for tests that drive _pool.map_paths in worker processes.

A worker takes the parent's sys.path, so it imports this module by name.  A
test patches a function here in the parent only, so the caller's share and
the workers' shares differ.
"""

import time

import numpy as np


def indices(lo, hi):
    """The share's path indices, as map_paths gathers them."""
    return (np.arange(lo, hi),)


def refuse(lo, hi):
    raise TypeError(f"refused paths {lo}..{hi - 1}")


def slow(seconds, lo, hi):
    time.sleep(seconds)
    return indices(lo, hi)
