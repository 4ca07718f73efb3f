"""Work shared between the caller and forked worker processes: the particle
blocks of ``montecarlo``, the groups of CSV files of ``cli._write_tables``,
the oracle's writer of the solve's batches (beside its particles) and psi's
fields on a Lanczos grid (``mfg.map_fields``), which import this module only
where they may fork. A task returns nothing: a CSV worker writes its files
itself, and a psi or particle worker writes its rows into an array of
``shared``, which the caller made before the fork and reads once the worker
is reaped, while it evaluates phi's fields and writes the series and u
files, or simulates its own blocks. A worker forks nothing, as
``spare_cpus`` is 0 there: every worker is the caller's own child, which it
reaps or kills.

A worker writes to a pipe the pickled exception its task raised, if any,
and leaves by ``os._exit``: with status 0 once its task returned or its
error is written, else 1. The caller reads each pipe to its end and reaps
its worker; it raises a worker's error with its own type, and a nonzero
wait status (a worker killed, or one whose error could not be written) as
ChildProcessError naming it. On any failure it kills (SIGKILL) and reaps
the workers not yet collected. ``mmap`` is imported by ``shared`` alone,
``pickle`` and ``signal`` only on those paths. Workers are forked rather
than spawned: a forked worker reads its inputs from memory it shares with
the caller, where a spawned pool re-imports the package and raised desk's
peak RSS in oracle mode from 62.1 to 65.3 MB.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["spare_cpus", "shared", "run_forked"]

_in_worker = False  # set by _fork in the worker only, which leaves by os._exit


def spare_cpus() -> int:
    """The CPUs this process may use beyond its own, for forked workers: 0
    in a forked worker, which forks nothing, and without ``os.fork``. "May
    use" is ``os.sched_getaffinity`` where it exists."""
    if _in_worker or not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def shared(shape) -> np.ndarray:
    """A float array of ``shape`` on an anonymous shared mapping, zeroed:
    what a worker forked after it writes there, the caller reads."""
    import mmap

    return np.ndarray(shape, buffer=mmap.mmap(-1, max(8 * int(np.prod(shape)), 1)))


def _fork(task) -> tuple[int, object]:
    """Fork a worker that runs ``task()`` and writes its error, if any, to a
    pipe. Returns the worker's pid and the pipe's read end."""
    global _in_worker
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _in_worker = True
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    task()
                except BaseException as exc:  # interrupts too: the caller raises it
                    import pickle

                    pipe.write(pickle.dumps(exc))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _stop(workers: dict) -> None:
    """Kill and reap the workers whose outcome was not collected."""
    import signal  # only after a failure

    for pid, pipe in workers.items():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_forked(local, tasks):
    """Run each of ``tasks``, functions of no argument that return nothing
    and write their results into ``shared`` arrays or files, in a forked
    worker of its own, and ``local()`` in the caller meanwhile. Returns what
    ``local`` returned. Every worker is reaped before this returns or
    raises; a task's error is raised here with its own type."""
    workers = {}  # pid: pipe, until the worker is reaped
    try:
        for task in tasks:
            pid, pipe = _fork(task)
            workers[pid] = pipe
        result = local()
        for pid in list(workers):
            with workers[pid] as pipe:
                error = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status:
                raise ChildProcessError(f"worker {pid} ended with wait status {status}")
            if error:
                import pickle

                raise pickle.loads(error)
    finally:
        if workers:
            _stop(workers)
    return result
