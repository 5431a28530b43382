"""Worker processes for the engines' path shares.

map_paths(module, name, args, n, unit, cold, warm) alone cuts a run's
paths 0..n-1 into contiguous shares, at most one per usable CPU, runs
module.name(*args, lo, hi) on each and gathers their per-path results in
path order, so what a caller reduces from them is bitwise equal for any
split.  The first share runs in the calling process, each other one in a
worker.  A path is worth `unit` units of work; every share keeps at least
one path and needs `warm` units where idle workers take every share but the
caller's, else `cold`, which pays for a new worker's start-up, so a small
run starts none.  While a worker starts, the caller's share runs cold / 2
units more (_bounds makes the cut).

A worker is a fresh interpreter started with -c, never a fork of the
caller, and imports only the named module, so a script needs no
`if __name__ == "__main__"` guard.  It serves one share after another from
its stdin until EOF, so up to cpus - 1 idle workers stay warm between runs
(idle() counts them), and a run takes them before it starts new ones.  Each
serves one run at a time; one whose result was not read is killed (see
map_paths), so no run reads another's result, and one that died while idle
is replaced.  Workers belong to the process that started them: a forked
child neither writes to nor ends its parent's, and starts its own.  close()
ends the idle workers: EOF on stdin ends each one's loop, and it is reaped.
An atexit hook calls it, so no worker outlives its caller.  subprocess,
pickle and atexit are imported, and the hook registered, only when the
first worker starts, so importing the package starts no process machinery.
"""

import importlib
import os

import numpy as np

_IDLE: dict = {}  # pid -> the idle workers that process started


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def idle() -> int:
    """Idle workers a run of this process can take without starting one."""
    return len(_IDLE.get(os.getpid(), ()))


def _workers(work: float, cold: float, warm: float) -> int:
    """Processes for a run of `work` units, at most one per usable CPU.

    Each gets `warm` units where idle workers take every share but the
    caller's, else `cold`.
    """
    cpus = _cpus()
    return max(1, min(cpus, int(work // cold)), min(cpus, idle() + 1, int(work // warm)))


# A worker reads the parent's sys.path once, then one (module, name, args)
# request at a time from stdin until EOF, and writes each request's result,
# or the exception it raised (its traceback goes to stderr), to stdout.  It
# runs under -c, so it never imports the caller's __main__, and ignores ^C:
# the parent handles the interrupt and ends its workers.  The first line
# names the process for tools such as pgrep -f.
_WORKER = """\
# regimeplan._pool worker
import importlib, pickle, signal, sys, traceback
signal.signal(signal.SIGINT, signal.SIG_IGN)
inp, out, sys.stdout = sys.stdin.buffer, sys.stdout.buffer, sys.stderr
sys.path[:] = pickle.load(inp)
while True:
    try:
        module, name, args = pickle.load(inp)
    except EOFError:
        break
    try:
        res = getattr(importlib.import_module(module), name)(*args)
    except Exception as exc:
        traceback.print_exc()
        res = exc
    pickle.dump(res, out, pickle.HIGHEST_PROTOCOL)
    out.flush()
"""


def _send(proc, obj) -> None:
    import pickle

    pickle.dump(obj, proc.stdin, pickle.HIGHEST_PROTOCOL)
    proc.stdin.flush()


def _start():
    """A new worker, given this process's sys.path; close() ends it."""
    import atexit
    import subprocess
    import sys

    atexit.unregister(close)  # registered once, however many workers start
    atexit.register(close)
    proc = subprocess.Popen([sys.executable, "-c", _WORKER],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        _send(proc, [os.path.dirname(os.path.dirname(__file__))] + sys.path)
    except BaseException:
        _end(proc)
        raise
    return proc


def _take(idle_procs: list):
    """An idle worker that is still alive, else a new one."""
    while True:
        try:
            proc = idle_procs.pop()  # one step, so two threads never take one worker
        except IndexError:
            return _start()
        if proc.poll() is None:
            return proc
        _end(proc)  # it died while idle


def _read(proc):
    """The result, or the exception, a worker wrote for its request."""
    import pickle

    try:
        return pickle.load(proc.stdout)
    except (EOFError, pickle.UnpicklingError):  # it died before writing all of it
        raise RuntimeError(f"engine worker exited with status {proc.wait()}") from None


def _end(proc) -> None:
    """Kill a worker unless it has exited, reap it and close its pipes."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def close() -> None:
    """End this process's idle workers and reap them; the next run starts new ones."""
    procs = _IDLE.pop(os.getpid(), [])
    for proc in procs:
        proc.stdin.close()  # EOF: the worker leaves its loop and exits
    for proc in procs:
        proc.wait()
        proc.stdout.close()


def _bounds(n: int, unit: float, cold: float, warm: float) -> list:
    """The (lo, hi) path ranges of a run's shares, the caller's first.

    While a worker has to start, the caller's share also takes the paths it
    runs meanwhile, but every share keeps at least one path.
    """
    shares = min(n, _workers(n * unit, cold, warm))
    head = min(int(cold / 2 / unit), n - shares) if shares - 1 > idle() else 0
    cuts = [0] + [head + (n - head) * s // shares for s in range(1, shares + 1)]
    return list(zip(cuts, cuts[1:]))


def map_paths(module: str, name: str, args: tuple, n: int, unit: float, cold: float,
              warm: float) -> tuple:
    """module.name(*args, lo, hi) over paths 0..n-1 in shares, gathered in path order.

    The function returns a tuple of arrays whose last axes run over paths
    lo..hi-1, and map_paths the same tuple over all n paths.  It is looked
    up when called, so the caller's share runs whatever module.name is in
    this process and the workers run the module's own.  Every worker has its
    request before the caller's share runs.  One share's tuple comes back as
    it is; with more, each array is allocated when the caller's share ends,
    and each share is dropped before the next is read.  A worker's exception
    is raised here once its result is read.  On any exception, ^C included,
    every worker whose result was not read is killed and reaped; the others
    go back to the pool, up to cpus - 1 idle workers, and the rest are ended.
    """
    bounds = _bounds(n, unit, cold, warm)
    idle_procs = _IDLE.setdefault(os.getpid(), [])
    procs, read = [], 0
    try:
        for b in bounds[1:]:
            procs.append(_take(idle_procs))
            _send(procs[-1], (module, name, args + b))
        part = getattr(importlib.import_module(module), name)(*args, *bounds[0])
        if not procs:
            return part
        out = tuple(np.empty(a.shape[:-1] + (n,), a.dtype) for a in part)
        for k, (lo, hi) in enumerate(bounds):
            if k:
                part = _read(procs[k - 1])
                read = k
                if isinstance(part, BaseException):
                    raise part
            for whole, a in zip(out, part):
                whole[..., lo:hi] = a
            part = a = None  # a share's arrays go before the next one is read
        return out
    finally:
        for k, proc in enumerate(procs):
            if k < read and len(idle_procs) < _cpus() - 1:
                idle_procs.append(proc)
            else:
                _end(proc)
