"""Work shared between the caller and forked worker processes: the particle
blocks of ``montecarlo``, the groups of CSV files of ``cli``, the oracle's
series, u and m files (written beside its particles) and psi's fields on a
Lanczos grid (``mfg.map_fields``), which import this module only where
they may fork. A CSV worker writes its files itself and returns no bytes;
a psi or particle worker returns its rows' bytes, and the caller meanwhile
evaluates phi's fields and writes the u files, or simulates its own blocks.

A worker writes to a pipe a 0 byte, the length of the bytes its task
returned as 8 bytes and those bytes, or a 1 byte, a length and its pickled
exception, and leaves by ``os._exit``. The caller reads each body into one
buffer of that length, its own or a new bytearray, reaps every worker, and
raises a worker's error with its own type; on any failure it kills
(SIGKILL) and reaps the workers not yet collected. ``pickle`` and
``signal`` are imported only on those paths. Workers are forked rather
than spawned: a forked worker reads its inputs from memory it shares with
the caller, where a spawned pool re-imports the package and raised desk's
peak RSS in oracle mode from 62.1 to 65.3 MB.
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
                pipe.write(tag + memoryview(body).nbytes.to_bytes(8, "little"))
                pipe.write(body)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    # unbuffered, so readinto fills the caller's buffer straight from the pipe
    return pid, open(read_end, "rb", buffering=0)


def _fill(pipe, buffer) -> bool:
    """Read ``pipe`` into ``buffer`` until it is full; False if the pipe
    ends first."""
    view, got = memoryview(buffer).cast("B"), 0
    while got < len(view):
        n = pipe.readinto(view[got:])
        if not n:
            return False
        got += n
    return True


def _receive(pipe, buffer) -> tuple[int, object]:
    """A worker's tag and body: a result's body read into ``buffer`` when
    one is given, else into a new bytearray; the body is None when the
    pipe ends early."""
    head = bytearray(9)
    if not _fill(pipe, head):
        return -1, None
    size = int.from_bytes(head[1:], "little")
    if head[0] == 0 and buffer is not None:
        room = memoryview(buffer).nbytes
        if room != size:
            raise ChildProcessError(f"a worker sent {size} bytes for a buffer of {room}")
    else:
        buffer = bytearray(size)
    return head[0], buffer if _fill(pipe, buffer) else None


def _stop(workers: dict) -> None:
    """Kill and reap the workers whose outcome was not collected."""
    import signal  # only after a failure

    for pid, pipe in workers.items():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_forked(local, tasks, out=None) -> tuple[object, list]:
    """Run each of ``tasks``, functions of no argument that return a
    bytes-like object, in a forked worker of its own, and ``local()`` in the
    caller meanwhile. Returns what ``local`` returned and the bytes of each
    task, in the order of ``tasks``: each a bytearray, or, where ``out``
    gives one writable buffer per task, that buffer, which the bytes must
    fill exactly. Every worker is reaped before this returns or raises; a
    task's error is raised here with its own type."""
    workers = {}  # pid: pipe, until the worker is reaped
    try:
        for task in tasks:
            pid, pipe = _fork(task)
            workers[pid] = pipe
        result = local()
        bodies = []
        for pid, buffer in zip(list(workers), out or [None] * len(workers)):
            tag, body = _receive(workers[pid], buffer)
            workers[pid].close()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if tag == 1 and body is not None:
                import pickle

                raise pickle.loads(body)
            if tag != 0 or body is None:
                raise ChildProcessError(f"worker {pid} sent no result (wait status {status})")
            bodies.append(body)
    finally:
        if workers:
            _stop(workers)
    return result, bodies
