"""The two-process record pipeline of the command line: a stream of
nodes (tuples of ints, as descent nodes and core.Stats are) produced in
a forked child and consumed in the process that forked it, so that
producing and consuming run on two CPUs.

The child sends the nodes through one pipe in frames: 8 bytes of length,
then marshal.dumps of a list of plain tuples (marshal.dumps of a whole
frame, and marshal.loads of it here, cost far less than marshal.load
from the pipe object by object).  The last frame is () when the stream
has ended, or (index in _CARRIED or -1, message) when it raised, so that
the exception is raised again here, of its kind, and the command keeps
its exit code.  A stream that ends without its last frame (the child
died) raises RuntimeError here.  A one-way stream cannot deadlock: the
child blocks only on a full pipe, which this process empties or closes.

Only a command whose answer outgrows one write batch imports this
module.
"""

from __future__ import annotations

import fcntl
import marshal
import os
from itertools import islice

# The size asked for the child's pipe: a full pipe stops the child, and
# the default 64 KiB stops it far too often.
PIPE_SIZE = 1 << 20
# The exceptions that an error frame carries by kind; any other one
# arrives as RuntimeError.
_CARRIED = (MemoryError, RuntimeError)


def consume_forked(nodes, frame: int, consume) -> None:
    """Fork a child that takes the nodes from the iterator `nodes` and
    sends them here, `frame` nodes per frame, and call consume on an
    iterator of the nodes received, which raises what the child raised.
    A frame cut short by a failure is not sent, so a consumer that
    writes frame-sized batches writes every batch produced before it.
    The child ends in os._exit on every path: it must not unwind through
    the caller, whose cleanup (such as removing a staging file) belongs
    to this process, nor flush the output buffers it inherited.  It ends
    quietly when this process stops reading.  This process closes the
    pipe, so that a child blocked on it ends, and reaps the child on
    every path."""
    rfd, wfd = os.pipe()
    try:
        fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, PIPE_SIZE)
    except (AttributeError, OSError):  # not Linux, or above the system's limit
        pass
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            _produce(nodes, frame, wfd)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            consume(_receive(pipe))
    finally:
        os.waitpid(pid, 0)


def _send(fd: int, payload) -> None:
    """Write one frame of payload."""
    data = marshal.dumps(payload)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _produce(nodes, frame: int, fd: int) -> None:
    """In the child: send the nodes, then the last frame."""
    try:
        while batch := list(map(tuple, islice(nodes, frame))):
            _send(fd, batch)
        end = ()
    except BrokenPipeError:
        return
    except BaseException as exc:
        kind = next((i for i, cls in enumerate(_CARRIED) if isinstance(exc, cls)), -1)
        end = (kind, str(exc) if kind >= 0 else f"{type(exc).__name__}: {exc}")
    try:
        _send(fd, end)
    except BrokenPipeError:
        pass


def _receive(pipe):
    """Yield the nodes of the frames read from pipe, and raise the
    exception that an error frame carries, or RuntimeError if the stream
    ends without its last frame."""
    while len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little")
        if len(data := pipe.read(size)) < size:
            break
        received = marshal.loads(data)
        if isinstance(received, list):
            yield from received
        elif not received:
            return
        else:
            kind, message = received
            raise (_CARRIED[kind] if kind >= 0 else RuntimeError)(message)
    raise RuntimeError("the record process ended before its answer")
