"""One forked child beside the calling process, for the commands that split
their work in two: `verify --suite all` and a long `compare`.  They import
this module when they have work to split, so `import ellipbounds` never
compiles it."""

from __future__ import annotations

import os
import threading
from typing import Callable

from .errors import EllipBoundsError


def cpus() -> int:
    # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork(child: Callable, caller: Callable, alone: Callable, what: str) -> object:
    """caller(recv) here while one forked child runs child(send): each recv() returns the bytes
    of the next send(data), in order.  alone() instead, with neither run, where no child can
    start: os.fork is missing, fewer than two CPUs are usable, another thread is alive, or
    os.pipe or os.fork fails.  The result is that of the one that ran.  recv raises an
    exception of child again, with its type and message, and EllipBoundsError naming what if
    the child ended before the frame it waits for.  Any exception here kills the child, and the
    child is reaped before this returns or raises.  Nothing is imported on the way to a result."""
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
        return alone()
    if pid == 0:  # the child: frames of a signed length and its bytes; an exit would flush the caller's files
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                def send(data: bytes, sign: int = 1) -> None:
                    pipe.write((sign * len(data)).to_bytes(8, "little", signed=True))
                    pipe.write(data)
                try:
                    child(send)
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
