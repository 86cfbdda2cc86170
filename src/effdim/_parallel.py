"""Order-preserving parallel map over forked worker processes.

``parallel_map(fn, items, jobs)`` returns ``[fn(item) for item in items]``.
With ``jobs > 1`` on Linux it runs on ``p = processes(jobs, len(items)) =
min(jobs, len(items), usable CPUs)`` processes: it forks ``w = p - 1``
workers, worker i runs ``items[i::w+1]`` and the caller runs
``items[0::w+1]``, so tasks sorted by size spread evenly.  A fork copies
the caller, so each worker inherits ``fn`` with its closure (large shared
arrays copy-on-write) and the caller's numpy error state
(``np.errstate``); nothing is pickled into it.  Each worker pickles its
results back through a pipe and leaves with ``os._exit``, and every
worker is reaped before the map returns or raises.  Elsewhere than Linux
the map runs serially.

Tasks must derive their randomness from their own argument (for example a
child RngStream), never from shared mutable state, so results are
identical for any worker count; what a task writes to memory dies with its
worker.  Each share stops at its first failure, and the map raises the
failure of the lowest item index, with its type: the exception a serial
run raises.  A worker's failure carries the worker's formatted traceback
in ``__cause__``.  A worker that exits without sending its results raises
RuntimeError naming its exit status.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

FORK = sys.platform == "linux"


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the ``__cause__`` of its failure."""

    def __str__(self):
        return self.args[0]


def processes(jobs: int, n_items: int) -> int:
    """The number of processes, the caller included, that ``parallel_map``
    runs ``n_items`` items on at ``jobs``; 1 means a serial map."""
    return min(jobs, n_items, len(os.sched_getaffinity(0)) if FORK else 1)


def parallel_map(fn, items, jobs: int = 1) -> list:
    items = list(items)
    step = processes(jobs, len(items))
    if step <= 1:
        return [fn(item) for item in items]
    # fds holds every pipe end the caller has open: one read end per worker,
    # and a write end only while its fork is under way.
    pids, fds, blobs = [], [], []
    try:
        for start in range(1, step):
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, items, start, step, fds[-1])
            pids.append(pid)
            os.close(fds.pop())
        shares = [_share(fn, items, 0, step)]
        for fd in fds:
            with open(fd, "rb", closefd=False) as fh:
                blobs.append(fh.read())
    finally:
        # Closing the read ends first lets a worker blocked on a full pipe
        # fail its write and exit, so no wait below can hang.
        for fd in fds:
            os.close(fd)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for status, blob in zip(statuses, blobs):
        if status != 0 or not blob:
            raise RuntimeError(f"parallel_map worker exited with status {status} "
                               "without sending its results")
        shares.append(pickle.loads(blob))
    failures = [(share[1], k) for k, share in enumerate(shares) if share[1] is not None]
    if failures:
        (_, exc, tb), k = min(failures, key=lambda failure: failure[0][0])
        if k == 0:
            raise exc
        raise exc from _RemoteTraceback(tb)
    out = [None] * len(items)
    for k, (results, _) in enumerate(shares):
        out[k::step] = results
    return out


def _share(fn, items, start, step):
    """``(results, failure)`` of ``items[start::step]`` in order.  The share
    stops at its first failure, ``(index, exception, traceback text)``;
    ``failure`` is None if every task returned."""
    results = []
    for index in range(start, len(items), step):
        try:
            results.append(fn(items[index]))
        except Exception as exc:
            return results, (index, exc, traceback.format_exc())
    return results, None


def _worker(fn, items, start, step, fd):
    """Run a share in a forked worker, send it through ``fd`` and exit; it
    never returns, so no worker runs on in the caller's code.  A share it
    cannot send, such as an unpicklable result, exits 1 with the traceback
    on stderr."""
    status = 1
    try:
        with open(fd, "wb") as fh:
            pickle.dump(_share(fn, items, start, step), fh)
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)
