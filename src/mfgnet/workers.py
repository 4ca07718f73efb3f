"""Work shared between the caller and forked worker processes: the particle
blocks of ``montecarlo``, the groups of CSV files of ``cli`` and psi's
fields on a Lanczos grid (``mfg.map_fields``), which import this module
only where they may fork. A CSV worker writes its files itself and returns
no bytes; a psi worker returns its rows' bytes, and the caller meanwhile
evaluates phi's fields and writes the u files.

A worker writes to a pipe a 0 byte and the bytes its task returned, or a
1 byte and its pickled exception, and leaves by ``os._exit``. The caller
reads every pipe to its end, reaps every worker, and raises a worker's
error with its own type; on any failure it kills (SIGKILL) and reaps the
workers not yet collected. ``pickle`` and ``signal`` are imported only on
those paths. Workers are forked rather than spawned: a forked worker reads
its inputs from memory it shares with the caller, where a spawned pool
re-imports the package and raised desk's peak RSS in oracle mode from
62.1 to 65.3 MB.
"""

from __future__ import annotations

import os

__all__ = ["spare_cpus", "run_forked"]


def spare_cpus() -> int:
    """The CPUs this process may use beyond its own, for forked workers: 0
    without ``os.fork``. "May use" is ``os.sched_getaffinity`` where it
    exists."""
    if not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


def _fork(task) -> tuple[int, object]:
    """Fork a worker that runs ``task()`` and writes its outcome to a pipe.
    Returns the worker's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                tag, body = b"\0", task()
            except BaseException as exc:  # interrupts too: the caller raises it
                import pickle

                tag, body = b"\1", pickle.dumps(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(tag)
                pipe.write(body)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    # unbuffered: a buffered reader's read(1) fills its buffer, and read()
    # then joins that to the rest, a second copy of the body in the caller
    return pid, open(read_end, "rb", buffering=0)


def _stop(workers: dict) -> None:
    """Kill and reap the workers whose outcome was not collected."""
    import signal  # only after a failure

    for pid, pipe in workers.items():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_forked(local, tasks) -> tuple[object, list[bytes]]:
    """Run each of ``tasks``, functions of no argument that return a
    bytes-like object, in a forked worker of its own, and ``local()`` in the
    caller meanwhile. Returns what ``local`` returned and the bytes of each
    task, in the order of ``tasks``. Every worker is reaped before this
    returns or raises; a task's error is raised here with its own type."""
    workers = {}  # pid: pipe, until the worker is reaped
    try:
        for task in tasks:
            pid, pipe = _fork(task)
            workers[pid] = pipe
        result = local()
        bodies = []
        for pid in list(workers):
            with workers[pid] as pipe:
                tag, body = pipe.read(1), pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if tag == b"\1":
                import pickle

                raise pickle.loads(body)
            if tag != b"\0":
                raise ChildProcessError(f"worker {pid} sent no result (wait status {status})")
            bodies.append(body)
    finally:
        if workers:
            _stop(workers)
    return result, bodies

