"""Forked workers: work that runs beside this process on a spare CPU.

One worker is one `os.fork` and one pipe that carries its pickled result
back, with no `multiprocessing` machinery: `multiprocessing` costs its
import and a process object per worker, and the order search's worker
lives for tens of milliseconds.  The worker runs one function from entry
on and leaves by `os._exit`, so it never unwinds the caller's stack, runs
no exit handlers and flushes no buffer the caller still holds.  `spare_cpu`
is the one switch: without a spare CPU every function runs in process and
nothing forks.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def spare_cpu() -> bool:
    """Whether a forked worker can run beside this process: fork exists and 2+ CPUs are ours."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class WorkerTraceback(Exception):
    """The cause given to an exception raised again from a worker: its traceback."""


def _serve(sender: int, func, args, kwargs) -> None:
    """The worker's body: send func's result, or the exception it raised, and exit."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's; it ends the worker
        try:
            message = "result", func(*args, **kwargs), None
        except Exception as exc:  # the caller raises it again
            import traceback
            message = "raised", exc, traceback.format_exc()
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # all or nothing reaches the pipe
        with open(sender, "wb") as out:
            out.write(data)
        status = 0
    except BaseException:  # nothing sent: the caller raises RuntimeError, and this says why
        import traceback
        traceback.print_exc()
    finally:
        os._exit(status)


@contextlib.contextmanager
def forked(worker: str, result: str, func, *args, **kwargs):
    """Yield a function that returns func(*args, **kwargs).

    With a spare CPU, func runs in one forked worker from entry on, and the
    function waits for it and raises again what func raised, with the
    worker's traceback as its cause.  A worker that exits without sending
    makes it raise RuntimeError: "{worker} exited with code ... before it
    sent {result}".  Without a spare CPU the function calls func in process.
    No worker outlives the block: one still running is killed.
    """
    if not spare_cpu():
        yield lambda: func(*args, **kwargs)
        return
    receiver, sender = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(receiver)
        os.close(sender)
        raise
    if pid == 0:
        os.close(receiver)
        _serve(sender, func, args, kwargs)
    os.close(sender)
    reaped = False

    def outcome():
        nonlocal reaped
        with open(receiver, "rb", closefd=False) as source:
            data = source.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not data:
            raise RuntimeError(f"{worker} exited with code {os.waitstatus_to_exitcode(status)} "
                               f"before it sent {result}")
        kind, value, trace = pickle.loads(data)
        if kind == "raised":
            raise value from WorkerTraceback(trace)
        return value

    try:
        yield outcome
    finally:
        os.close(receiver)
        if not reaped:  # a worker still running does work no longer wanted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def shared_map(worker: str, func, items, order) -> list:
    """[func(item) for item in items], the calls shared with one forked worker.

    This process and the worker take the indices of `order`, a permutation
    of range(len(items)), one at a time from one queue: a pipe filled before
    the fork with one byte per index (so at most 256 items), from which
    whichever is free takes the next.  Put the costliest items first.  The results come
    back in the order of `items` whoever computed them.  func's exceptions
    propagate as from `forked`; without a spare CPU every call runs here.
    """
    queue, filler = os.pipe()
    try:
        os.write(filler, bytes(order))
    finally:
        os.close(filler)  # the queue reads as empty once drained

    def take() -> dict:
        done = {}
        while index := os.read(queue, 1):
            done[index[0]] = func(items[index[0]])
        return done

    try:
        with forked(worker, "its results", take) as theirs:
            done = take()
            done.update(theirs())
    finally:
        os.close(queue)
    return [done[i] for i in range(len(items))]
