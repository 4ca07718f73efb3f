"""The pipe protocol of ``workers.run_forked``: a tag, the body's length,
then the body, read into one buffer of that length."""

import os

import numpy as np
import pytest

from mfgnet import workers


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("size", [0, 1, (1 << 20) + 3], ids=["empty", "one_byte", "over_1MiB"])
def test_bodies_round_trip(size):
    """Bodies of 0 bytes, 1 byte and more than 1 MiB reach the caller whole,
    into new bytearrays or into the caller's own buffers."""
    body = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    result, bodies = workers.run_forked(lambda: "local", [lambda: body, lambda: body[::-1]])
    assert result == "local"
    assert [bytes(b) for b in bodies] == [body, body[::-1]]
    assert all(isinstance(b, bytearray) for b in bodies)
    into = [bytearray(size), np.empty(size, dtype=np.uint8)]
    _, bodies = workers.run_forked(lambda: None, [lambda: body, lambda: body[::-1]], out=into)
    assert bodies[0] is into[0] and bodies[1] is into[1]
    assert bytes(into[0]) == body and into[1].tobytes() == body[::-1]
    assert_no_child_left()


def test_body_longer_than_its_buffer():
    """A body that does not fit the caller's buffer exactly raises
    ChildProcessError, and its worker, blocked on the pipe, is not left."""
    with pytest.raises(ChildProcessError, match="100000 bytes for a buffer of 8"):
        workers.run_forked(lambda: None, [lambda: bytes(100_000)], out=[bytearray(8)])
    assert_no_child_left()


def test_worker_dying_inside_its_body(monkeypatch):
    """A worker that sends its length and dies before the end of its body
    raises ChildProcessError, and no child is left."""
    real_open = open

    class Dying:
        """A pipe that passes the tag and the length, then ten bytes of the
        body, and ends the process."""

        def __init__(self, fd):
            self.pipe = real_open(fd, "wb")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.pipe.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            if len(data) == 9:
                self.pipe.write(data)
                return
            self.pipe.write(data[:10])
            self.pipe.flush()
            os._exit(0)

    monkeypatch.setattr(workers, "open", lambda fd, mode, **kw: (
        Dying(fd) if mode == "wb" else real_open(fd, mode, **kw)), raising=False)
    with pytest.raises(ChildProcessError, match="sent no result"):
        workers.run_forked(lambda: None, [lambda: bytes(1000)])
    assert_no_child_left()


def test_error_in_a_worker_keeps_its_type():
    """A worker's exception is pickled behind its length and raised in the
    caller with its own type."""
    def failing():
        raise KeyError("in the worker")

    with pytest.raises(KeyError, match="in the worker"):
        workers.run_forked(lambda: None, [failing])
    assert_no_child_left()
