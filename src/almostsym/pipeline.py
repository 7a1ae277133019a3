"""The record pipeline of the command line: streams of nodes (tuples of
ints, as descent nodes and core.Stats are) produced in forked children
and consumed in the process that forked them, so that producing and
consuming run on more than one CPU.

consume_forked forks one child per stream, such as one that continues
a stream already started, and merges two or more streams, each in
canonical order, on the canonical key of their gap masks (heapq.merge)
before it consumes them.  consume_claimed forks _WORKERS interchangeable
workers that share a list of work items through one claim queue and
each send their own stream.

Each child sends its nodes through a pipe of its own in frames: 8 bytes
of length, then marshal.dumps of a list of plain tuples (marshal.dumps
of a whole frame, and marshal.loads of it here, cost far less than
marshal.load from the pipe object by object).  The last frame is () when
the stream has ended, or (index in _CARRIED or -1, message) when it
raised, so that the exception is raised again here, of its kind, and
the command keeps its exit code.  A stream that ends without its last
frame (the child died) raises RuntimeError here, and so does a node that
arrives from two workers.  A one-way stream cannot deadlock: a child
blocks only on a full pipe, which this process empties or closes.

The claim queue is a pipe filled with every token before the fork and
closed for writing, so a claim never blocks: it reads one token or the
end of the queue.  A token is one byte, the index of a block of
ceil(n/_BLOCKS) of the n items (_BLOCKS = 256): one item per block up to
256 items, and never more than 256 tokens.  So the queue is one write of
at most 256 bytes into an empty pipe.  POSIX makes a write of at most
PIPE_BUF bytes (512 or more) whole, and an empty pipe has room for that
many, so the write neither waits nor stops short.

A process that cannot be forked is a resource limit (LimitExceeded).  A
failure of this process's own pipes is an internal one (RuntimeError),
never the BrokenPipeError of a reader that went away.  Once a run fails,
this process closes every pipe and kills the children; on every path it
reaps each child it started.

Only as-descending and as-ascending import this module, and only once
their walk outgrows one write batch.
"""

from __future__ import annotations

import fcntl
import marshal
import os
from itertools import islice

from .core import LimitExceeded, _mask_key

# The size asked for each child's pipe.  A child computes what it sends
# (an as-ascending worker derives each node from its removal set, msg by
# a sumset), so a full pipe stalls its work: with the default 64 KiB,
# as-ascending at F = 55 was slower in 7 of 8 pairs of one measured set
# and level in another.
PIPE_SIZE = 1 << 20
# The exceptions that an error frame carries by kind; any other one
# arrives as RuntimeError.
_CARRIED = (MemoryError, RuntimeError)
# The workers of consume_claimed, and the most blocks its claim queue
# hands out: one token byte each, well within the least PIPE_BUF.
_WORKERS = 2
_BLOCKS = 256
# POSIX's number of SIGKILL: the signal module takes a millisecond to
# import, which every answer above one batch would pay.
_SIGKILL = 9


def consume_forked(makers, frame: int, consume) -> None:
    """Fork one child per maker, each sending here the nodes of maker(),
    `frame` nodes per frame, and call consume on an iterator of the nodes
    received: the one stream, or the merge of the streams.  It raises
    what a child raised.  A frame cut short by a failure is not sent, so
    a consumer that writes frame-sized batches writes every batch
    produced before it.  The pipes are closed and the children reaped on
    every path; the children of a run that failed are killed first,
    since one that is still walking would notice the closed pipe only at
    its next frame."""
    children = []  # (pid, pipe) of each child started
    completed = False
    try:
        for maker in makers:
            children.append(_fork(maker, frame, [pipe for _, pipe in children]))
        streams = [_receive(pipe) for _, pipe in children]
        consume(streams[0] if len(streams) == 1 else _merge(streams))
        completed = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not completed:
                os.kill(pid, _SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def consume_claimed(items: tuple, share, frame: int, consume) -> None:
    """Fork _WORKERS workers that claim the items from one queue, and
    call consume on the merge of their streams, in canonical order of
    the gap masks (node[0]).  Every worker sends, `frame` nodes per
    frame, the nodes of share(claimed), with claimed an iterator of the
    items that the worker claims as it takes them; each worker's nodes
    must be in canonical order, and no node may come from two workers."""
    rfd, wfd = os.pipe()
    try:
        try:
            block = _fill(wfd, len(items))
        finally:
            os.close(wfd)
        consume_forked([lambda: share(_claims(rfd, items, block))] * _WORKERS,
                       frame, consume)
    finally:
        os.close(rfd)


def _fill(fd: int, count: int) -> int:
    """Write to the empty pipe fd one token byte per block of the `count`
    items, at most _BLOCKS tokens, and return the block size,
    ceil(count/_BLOCKS).  The one write of at most _BLOCKS bytes is whole
    and does not wait (see the module docstring)."""
    block = max(1, -(-count // _BLOCKS))
    try:
        os.write(fd, bytes(range(-(-count // block))))
    except OSError as exc:
        raise RuntimeError(f"cannot fill the claim queue: {exc}") from None
    return block


def _claims(fd: int, items: tuple, block: int):
    """In a worker: the items of each block it claims from the queue on
    fd, one token byte a claim, until the queue is empty."""
    while token := os.read(fd, 1):
        start = token[0] * block
        yield from items[start:start + block]


def _fork(maker, frame: int, inherited: list):
    """Fork a child that sends the nodes of maker() through a new pipe,
    and return (its pid, the pipe's read end).  The child closes the
    read ends in `inherited`, those of the children forked before it,
    and ends in os._exit on every path: it must not unwind through the
    caller, whose cleanup (such as removing a staging file) belongs to
    this process, nor flush the output buffers it inherited.  It ends
    quietly when this process stops reading."""
    rfd, wfd = os.pipe()
    try:
        fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, PIPE_SIZE)
    except (AttributeError, OSError):  # not Linux, or above the system's limit
        pass
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(rfd)
        os.close(wfd)
        raise LimitExceeded(f"cannot start a process: {exc.strerror or exc}") from None
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            for pipe in inherited:
                pipe.close()
            _produce(maker, frame, wfd)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _send(fd: int, payload) -> None:
    """Write one frame of payload."""
    data = marshal.dumps(payload)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _produce(maker, frame: int, fd: int) -> None:
    """In the child: send the nodes of maker(), then the last frame."""
    try:
        nodes = iter(maker())
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
    ends without its last frame or the pipe cannot be read."""
    try:
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
    except OSError as exc:
        raise RuntimeError(f"cannot read the record process: {exc}") from None
    raise RuntimeError("the record process ended before its answer")


def _merge(streams):
    """The nodes of the streams, each in canonical order, merged into
    canonical order; RuntimeError when one gap mask arrives twice."""
    import heapq  # here: a single stream needs no merge

    last = None
    for node in heapq.merge(*streams, key=lambda node: _mask_key(node[0])):
        if node[0] == last:
            raise RuntimeError("two record processes produced one semigroup")
        last = node[0]
        yield node
