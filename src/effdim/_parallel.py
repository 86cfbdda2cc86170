"""Order-preserving parallel map.

Tasks must derive their randomness from their own argument (for example a
child RngStream), never from shared mutable state, so results are
identical for any worker count.  Each task runs in a copy of the caller's
context, so numpy's error state (``np.errstate``) holds in every worker
as it does in the caller.  The thread pool is imported only when a map
runs threads, so a serial run never loads ``concurrent.futures``.
"""

from __future__ import annotations

import contextvars


def parallel_map(fn, items, jobs: int = 1) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    ctx = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda item: ctx.copy().run(fn, item), items))
