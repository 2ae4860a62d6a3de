"""Forked worker processes, shared by lookups, store builds and prime searches.

A worker is a plain `os.fork` child with one pipe from its parent and one
back.  Each message is a pickled value behind its length, written and read
on raw descriptors, so that `select` on a worker sees exactly what is left
to read.  A worker ends only through `os._exit`, and leaves early once its
parent is gone.  The parent kills and reaps every worker when it leaves
`forked`, however it leaves it, Ctrl-C included.  `pickle` and `signal`
are imported only by a process that forks.
"""

from __future__ import annotations

import contextlib
import os

from .errors import HelbError

_LENGTH = 8  # bytes of the length that precedes each message


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int | None = None) -> int:
    """Workers to fork: one per usable CPU, at most one per job when
    `jobs` is given.  Fewer than 2 means run in this process, as on a
    platform without `os.fork`."""
    if not hasattr(os, "fork"):
        return 1
    count = _usable_cpus()
    return count if jobs is None else min(count, jobs)


def _write(fd: int, value) -> None:
    import pickle

    data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(_LENGTH, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError("pipe closed mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read(fd: int):
    import pickle

    size = int.from_bytes(_read_exactly(fd, _LENGTH), "little")
    return pickle.loads(_read_exactly(fd, size))


def _received(fd: int):
    """The values sent down `fd`, until its writer closes it."""
    while True:
        try:
            yield _read(fd)
        except EOFError:
            return


class Worker:
    """The parent's end of one worker: `send` it a job, `receive` the
    result of its oldest job not yet received.  `fileno` is the end that
    results arrive on, for `select`."""

    def __init__(self, pid: int, inbox: int, outbox: int):
        self.pid, self._inbox, self._outbox = pid, inbox, outbox

    def fileno(self) -> int:
        return self._outbox

    def send(self, job) -> None:
        try:
            _write(self._inbox, job)
        except BrokenPipeError:
            raise HelbError("a worker process ended before it took a job") from None

    def receive(self, what: str):
        """The result of the next job, described as `what` in the error
        raised when the worker ended without it; an error that the job
        raised is raised again here."""
        try:
            ok, value = _read(self._outbox)
        except Exception:  # cut short: the worker died or could not send
            raise HelbError(f"a worker process ended without the result "
                            f"of {what}") from None
        if not ok:
            raise value
        return value


@contextlib.contextmanager
def forked(run, shares: list):
    """Yields one `Worker` per share: a forked child that applies `run` to
    each of its jobs, in order, and sends back each result.

    A share is the list of its worker's jobs, which the child inherits
    through the fork, or None for a worker that runs each job sent to it
    by `Worker.send` until this process closes its pipe.  A job that
    raises sends back its exception instead.  Every worker is killed and
    reaped on leaving the context.
    """
    import signal  # only a process that forks needs it

    parent, workers, fds = os.getpid(), [], []

    def serve(inbox: int, outbox: int, share) -> None:
        """A worker's whole life.  It first closes every pipe end that
        belongs to the parent, its own included, so that a write to a
        parent that is gone fails instead of filling a pipe that nobody
        reads, and a read from one ends."""
        try:
            for fd in fds:
                if fd not in (inbox, outbox):
                    os.close(fd)
            for job in _received(inbox) if share is None else share:
                if os.getppid() != parent:
                    break
                try:
                    message = (True, run(job))
                except Exception as exc:
                    message = (False, exc)
                _write(outbox, message)
        finally:
            os._exit(0)

    try:
        for share in shares:
            inbox, to_worker = os.pipe()
            from_worker, outbox = os.pipe()
            fds += [inbox, to_worker, from_worker, outbox]
            pid = os.fork()
            if pid == 0:
                serve(inbox, outbox, share)
            workers.append(Worker(pid, to_worker, from_worker))
            for fd in (inbox, outbox):
                fds.remove(fd)
                os.close(fd)
        yield workers
    finally:
        for fd in fds:
            os.close(fd)
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
