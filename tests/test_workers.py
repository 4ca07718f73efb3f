"""The contract of ``workers.run_forked``: a task returns nothing and
writes its result into ``workers.shared`` arrays; its pipe carries only its
error."""

import os
import signal

import numpy as np
import pytest

from mfgnet import workers


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("size", [0, 1, (1 << 17) + 3], ids=["empty", "one_value", "over_1MiB"])
def test_shared_arrays_round_trip(size):
    """0 values, 1 value and more than 1 MiB of values that two workers
    write into shared arrays reach the caller whole, and ``run_forked``
    returns what ``local`` returned."""
    values = np.random.default_rng(size).standard_normal(size)
    into = [workers.shared(size), workers.shared((1, size))]
    assert not into[0].any() and into[1].shape == (1, size)

    def forward():
        into[0][:] = values

    def backward():
        into[1][0] = values[::-1]

    assert workers.run_forked(lambda: "local", [forward, backward]) == "local"
    assert into[0].tobytes() == values.tobytes()
    assert into[1][0].tobytes() == values[::-1].tobytes()
    assert_no_child_left()


def test_more_workers_than_cpus_share_one_array():
    """Workers, more of them than the machine has CPUs, and the caller each
    fill their own row of one shared array; every row arrives whole."""
    n = 2 * (os.cpu_count() or 1) + 1
    rows = workers.shared((n, 10_000))

    def fill(r):
        rows[r] = r

    workers.run_forked(lambda: fill(0), [lambda r=r: fill(r) for r in range(1, n)])
    assert (rows == np.arange(n)[:, None]).all()
    assert_no_child_left()


def test_worker_killed_inside_its_task():
    """A worker that fills part of its shared rows and then dies by SIGKILL
    raises ChildProcessError naming its wait status, and no child is left;
    what it wrote before it died is in the rows."""
    rows = workers.shared((2, 1000))

    def dying():
        rows[0] = 1.0
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(ChildProcessError, match=f"wait status {signal.SIGKILL}$"):
        workers.run_forked(lambda: None, [dying])
    assert rows[0].min() == 1.0 and not rows[1].any()
    assert_no_child_left()


def test_error_in_a_worker_keeps_its_type():
    """A worker's exception is pickled and raised in the caller with its
    own type."""
    def failing():
        raise KeyError("in the worker")

    with pytest.raises(KeyError, match="in the worker"):
        workers.run_forked(lambda: None, [failing])
    assert_no_child_left()


def test_a_worker_has_no_spare_cpus(monkeypatch):
    """On 3 CPUs the caller has 2 spare and a forked worker none, so every
    worker is the caller's own child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    in_worker = workers.shared(1)
    in_worker[0] = -1.0

    def count():
        in_worker[0] = workers.spare_cpus()

    assert workers.run_forked(workers.spare_cpus, [count]) == 2
    assert in_worker[0] == 0.0
    assert_no_child_left()
