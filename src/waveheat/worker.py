"""A forked worker process beside this one: ``_with_worker`` and the CPU move it makes."""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Iterator

from .errors import SolveFailureError


def _cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None where unreadable."""
    try:
        with open("/proc/self/stat") as stat:
            fields = stat.read()
        # field 2, the command name in parentheses, may hold spaces: count from its end
        return int(fields[fields.rindex(")") + 2 :].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: int | None) -> None:
    """Move this process off ``cpu`` if it runs there and may run elsewhere; keep its affinity.

    The affinity is narrowed to the allowed CPUs but ``cpu``, which moves
    the process at once, and then restored: a move, not a pin.  Nothing
    happens where the CPU or the affinity cannot be read or set.
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1 and _cpu() == cpu:
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _unpickled(stream) -> Iterator[object]:
    """The objects pickled into ``stream``, in order, until its end."""
    while True:
        try:
            yield pickle.load(stream)
        except EOFError:
            return


def _with_worker(
    work: Callable[[Iterator[object]], object], local: Callable[[Callable[[object], None]], object]
) -> tuple:
    """(local(send), work(received)), ``work`` run in a forked worker while ``local`` runs here.

    ``local`` passes objects to the worker in order by calling ``send``;
    ``work`` iterates over them as they arrive, and its iterator ends when
    ``local`` has returned.  Each object goes over a pipe as one pickle.
    The worker sends its result, or the exception it raised, back as one
    pickle over a second pipe and always ends with ``os._exit``; its
    exception is raised here with the same type and message.  The worker
    closes its end of the first pipe before it sends its outcome, and
    ``send`` drops what it can no longer deliver, so a worker that fails
    or returns early never shows here as a BrokenPipeError.  A worker that
    ends without a result raises SolveFailureError.  If ``local`` raises,
    the worker is killed before the exception propagates.  Every path
    reaps the worker, so no process outlives the call.  Where the platform
    has no ``os.fork`` both run here, ``local`` first.

    Two callers use it.  ``resolvent.sweep`` sends its worker each row's
    s_eff, and the worker returns the doubled grids' norms.
    ``checks.battery`` sends nothing: its worker returns the checks that do
    not need the Crank-Nicolson trajectory, which runs here.

    The CPU this process runs on is noted just before the fork.  A worker
    that starts on it, with other CPUs allowed, moves off it (``_leave_cpu``):
    a scheduler that does not balance load, as in a cpuset with
    ``sched_load_balance`` 0, would otherwise keep both processes on one
    CPU.  Where the worker already runs elsewhere, nothing changes.

    A fork rather than a spawned interpreter: the worker starts from this
    process's imports and state, where a fresh interpreter would import
    numpy and scipy again, several times the worker's work in either caller.
    The package starts no threads of its own.
    """
    if not hasattr(os, "fork"):
        objects: list[object] = []
        return local(objects.append), work(iter(objects))
    cpu = _cpu()
    feed_read, feed_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (feed_read, feed_write, result_read, result_write):
            os.close(fd)
        raise
    if pid == 0:  # the worker
        code = 1
        try:
            os.close(feed_write)
            os.close(result_read)
            _leave_cpu(cpu)
            with os.fdopen(feed_read, "rb") as feed:
                try:
                    outcome = (True, work(_unpickled(feed)))
                except Exception as exc:
                    outcome = (False, exc)
            with os.fdopen(result_write, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(feed_read)
    os.close(result_write)
    feeding = True

    def send(obj: object) -> None:
        nonlocal feeding
        data = memoryview(pickle.dumps(obj))
        try:
            while feeding and data:
                data = data[os.write(feed_write, data) :]
        except BrokenPipeError:  # the worker stopped reading: its outcome says why
            feeding = False

    try:
        with os.fdopen(result_read, "rb") as pipe:
            try:
                mine = local(send)
            finally:
                os.close(feed_write)
            sent = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SolveFailureError(f"worker process ended without a result (exit {code})")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return mine, value
