"""Worker processes for the engines' path shares.

run(module, name, shares) calls the function module.name once per share
and yields the results in share order: the first share runs in the calling
process, each other one in a fresh interpreter started with -c, never a
fork of the caller.  A worker imports only the named module, so a script
needs no `if __name__ == "__main__"` guard.  subprocess and pickle are
imported only when a worker starts, so importing the package starts no
process machinery.
"""

import importlib
import os


def _workers(work: float, least: float) -> int:
    """Processes for a run of `work` units: one per usable CPU, each given at least `least`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, int(work // least)))


# A worker reads the parent's sys.path, the function's module and name and
# one share's arguments from stdin, and writes the share's result, or the
# exception it raised (its traceback goes to stderr), to stdout.  It runs
# under -c, so it never imports the caller's __main__, and ignores ^C: the
# parent handles the interrupt and ends its workers.
_WORKER = """\
import importlib, io, pickle, signal, sys, traceback
signal.signal(signal.SIGINT, signal.SIG_IGN)
inp = io.BytesIO(sys.stdin.buffer.read())
out, sys.stdout = sys.stdout.buffer, sys.stderr
sys.path[:] = pickle.load(inp)
module, name = pickle.load(inp)
try:
    res = getattr(importlib.import_module(module), name)(*pickle.load(inp))
except Exception as exc:
    traceback.print_exc()
    res = exc
pickle.dump(res, out, pickle.HIGHEST_PROTOCOL)
"""


def _start(module: str, name: str, args):
    """A worker process running module.name(*args); the caller must end it."""
    import pickle
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", _WORKER],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        path = [os.path.dirname(os.path.dirname(__file__))] + sys.path
        proc.stdin.write(pickle.dumps(path) + pickle.dumps((module, name))
                         + pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
        proc.stdin.close()
    except BaseException:
        _end(proc)
        raise
    return proc


def _collect(proc):
    """The result a worker wrote; its exception is raised here."""
    import pickle

    try:
        res = pickle.load(proc.stdout)
    except (EOFError, pickle.UnpicklingError):  # it died before writing all of it
        raise RuntimeError(f"engine worker exited with status {proc.wait()}") from None
    proc.wait()
    if isinstance(res, BaseException):
        raise res
    return res


def _end(proc) -> None:
    """Kill a worker unless it has exited, reap it and close its pipes."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def run(module: str, name: str, shares):
    """Yield module.name(*args) for each args in shares, in order.

    The function is looked up when called, so the first share runs whatever
    module.name is in this process and the workers run the module's own.
    Every worker starts before the first share runs.  On any exception, ^C
    included, and when the caller closes the generator early, every worker
    is killed and reaped.
    """
    procs = []
    try:
        for args in shares[1:]:
            procs.append(_start(module, name, args))
        yield getattr(importlib.import_module(module), name)(*shares[0])
        for proc in procs:
            yield _collect(proc)
    finally:
        for proc in procs:
            _end(proc)
