"""Forked workers: function calls that run beside the caller on the other CPUs.

``Workers`` starts each call in a child made by ``os.fork``. The child sends
the pickled return value, or the exception, back through a pipe and exits.
A child holds a copy of the parent's memory at the fork, so arguments are
never pickled, and a call computes in the child what it would compute in the
parent, bit for bit. With one CPU in the process's affinity mask, without
a way to pin the BLAS thread count, or inside a forked worker, a call runs
in-process when it is started and nothing is forked. So a worker never
forks, and no more processes compute than there are CPUs.

A fork and a pipe start no thread in the parent, unlike ``multiprocessing``
pools and ``concurrent.futures``, whose helper threads start and end with
them. The only other threads this program has are OpenBLAS's, and OpenBLAS's
own fork handler stops them in the parent before each fork, which makes the
fork safe; restoring a thread count above one starts them again. While
children may run, every process uses one OpenBLAS thread: two processes of
two BLAS threads each on two cores run several times slower than one thread
each. The thread count is restored when ``Workers`` exits.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle

import numpy as np

_in_worker = False  # set in each forked child


def cpu_count() -> int:
    """The number of CPUs in this process's affinity mask."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


@functools.lru_cache(maxsize=None)
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None when no library in ``numpy.libs`` exports them."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if not (name.startswith("libscipy_openblas64_") and ".so" in name):
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _InProcess:
    """A call made when it is started; ``result`` returns or raises its outcome."""

    def __init__(self, fn, args):
        try:
            self._value, self._error = fn(*args), None
        except Exception as exc:
            self._value, self._error = None, exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self):
        pass


def _pickled_outcome(ok, value) -> bytes:
    """(ok, value) pickled; an exception that does not survive pickling is
    sent as a RuntimeError naming it."""
    try:
        data = pickle.dumps((ok, value), protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception as exc:
        what = f"{type(value).__name__}: {value}" if not ok else "the call's return value"
        return pickle.dumps((False, RuntimeError(f"worker could not send {what}: {exc}")))


class _Forked:
    """A call made in a forked child; ``result`` waits for it and reaps the child."""

    def __init__(self, fn, args):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            global _in_worker
            _in_worker = True
            status = 1
            try:
                os.close(read_fd)
                try:
                    data = _pickled_outcome(True, fn(*args))
                except BaseException as exc:  # raised in the parent by result()
                    data = _pickled_outcome(False, exc)
                with open(write_fd, "wb") as f:
                    f.write(data)
                status = 0
            finally:
                os._exit(status)  # never back into the parent's stack
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd

    def _wait(self) -> int:
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return status

    def result(self):
        fd, self.fd = self.fd, None
        with open(fd, "rb") as f:
            data = f.read()
        status = self._wait()
        if not data:
            raise RuntimeError(f"worker process ended with wait status {status} and no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    def cancel(self):
        """Kill the child if it still runs, reap it and close the pipe."""
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._wait()
        if self.fd is not None:
            fd, self.fd = self.fd, None
            os.close(fd)


class Workers:
    """Starts calls in forked children, one per CPU in the affinity mask.

    ``count`` is how many calls may run at once; the caller keeps to it.
    It is 1 with one CPU, when the BLAS thread count cannot be pinned or in
    a forked worker, and then ``start`` makes the call in-process. Used as a
    context manager: inside, BLAS runs one thread per process; on exit every
    child still running is killed and reaped, whatever ended the block.
    """

    def __init__(self):
        count = 1 if _in_worker else cpu_count()
        self._blas = blas_threads() if count > 1 else None
        self.count = count if self._blas is not None else 1
        self._started = []

    def __enter__(self):
        if self._blas is not None:
            get, set_ = self._blas
            self._threads = get()
            set_(1)
        return self

    def __exit__(self, *exc):
        for call in self._started:
            call.cancel()
        if self._blas is not None:
            self._blas[1](self._threads)

    def start(self, fn, *args):
        """Start ``fn(*args)``; the returned call's ``result()`` returns its
        value or raises its exception, with the exception's own type, and
        ``cancel()`` drops it."""
        if self.count == 1:
            return _InProcess(fn, args)
        call = _Forked(fn, args)
        self._started.append(call)
        return call
