import os

import pytest

import ellipbounds._fork
from ellipbounds._fork import fork
from ellipbounds.errors import VerificationError

# one usable CPU: the frames are made here as the caller reads them; two: a forked child makes them
CPUS = [1, pytest.param(2, marks=pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork"))]


@pytest.fixture(params=CPUS, ids=["one CPU", "two CPUs"])
def cpus(request, monkeypatch):
    # the usable CPUs, whatever the host, and the children forked, counted here
    made, real = [], os.fork
    monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: request.param)
    monkeypatch.setattr(os, "fork", lambda: made.append(os.getpid()) or real())
    yield request.param, made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pids(n):
    # n frames, each the frame's index and the process that made it
    for i in range(n):
        yield f"{i} {os.getpid()}".encode()


def test_frames_arrive_in_order(cpus):
    got = fork(_pids(5), lambda recv: [recv().split()[0] for _ in range(5)], "test")
    assert got == [b"0", b"1", b"2", b"3", b"4"]


def test_frame_error_reaches_the_caller(cpus):
    def frames():
        yield b"first"
        raise VerificationError("frame 2 broke at r=0.5")

    read = []
    with pytest.raises(VerificationError) as exc:
        fork(frames(), lambda recv: [read.append(recv()) for _ in range(2)], "test")
    assert (type(exc.value), str(exc.value)) == (VerificationError, "frame 2 broke at r=0.5")
    assert read == [b"first"]


def test_caller_runs_here_and_forks_only_with_two_cpus(cpus):
    n, made = cpus
    here = os.getpid()
    ran = []

    def caller(recv):
        ran.append(os.getpid())
        return [int(recv().split()[1]) for _ in range(3)]

    makers = fork(_pids(3), caller, "test")
    assert ran == [here]
    if n == 1:
        assert made == [] and makers == [here] * 3
    else:
        assert made == [here] and len(set(makers)) == 1 and makers[0] != here
