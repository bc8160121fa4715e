"""One forked child beside the calling process, for the commands that split
their work in two, `verify --suite all` and a long `compare`, or their frames
made here when no child starts.  They import this module when they have work
to split, so `import ellipbounds` never compiles it."""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator

from .errors import EllipBoundsError


def cpus() -> int:
    # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork(frames: Iterator[bytes], caller: Callable, what: str) -> object:
    """caller(recv), each recv() returning the next frame of frames, a generator not yet started:
    a forked child iterates it and writes each frame to a pipe that recv reads, or, where no child
    can start (no os.fork, fewer than two usable CPUs, another live thread, or a failed os.pipe or
    os.fork), recv is frames.__next__, which makes each frame here.  The result is caller's.  An
    exception raised in frames reaches caller from recv with its type and message; a child's recv
    raises EllipBoundsError naming what if the child ended before the frame it waits for.  Any
    exception here kills the child, which is reaped before this returns or raises.  Nothing is
    imported on the way to a result."""
    pid = None
    if hasattr(os, "fork") and cpus() >= 2 and threading.active_count() == 1:
        fds = ()
        try:
            fds = rfd, wfd = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        return caller(frames.__next__)
    if pid == 0:  # the child: frames of a signed length and its bytes; an exit would flush the caller's files
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                def send(data: bytes, sign: int = 1) -> None:
                    pipe.write((sign * len(data)).to_bytes(8, "little", signed=True))
                    pipe.write(data)
                try:
                    for data in frames:
                        send(data)
                except BaseException as exc:  # a negative length: raised again in the caller
                    import pickle
                    send(pickle.dumps(exc), -1)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(wfd)
    reaped = False

    def recv() -> bytes:
        nonlocal reaped
        n = int.from_bytes(head := pipe.read(8), "little", signed=True)
        data = pipe.read(abs(n))
        if len(head) < 8 or len(data) < abs(n):
            reaped, status = True, os.waitpid(pid, 0)[1]
            raise EllipBoundsError(f"the {what} child ended without a result "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")
        if n < 0:
            import pickle
            raise pickle.loads(data)
        return data

    try:
        with open(rfd, "rb") as pipe:
            return caller(recv)
    except BaseException:
        if not reaped:
            import signal
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if not reaped:
            os.waitpid(pid, 0)
