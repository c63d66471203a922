"""The one process-pool map the package uses. Each of these is one
``pool_map``, with a pool of its own:

- ``traceio.write_trace``: the row ranges of a trace being written (the
  pool of ``simulate``);
- ``traceio.read_trace``: the byte ranges of a trace file being read;
- ``pipeline.run_pipeline``: the window chunks of a run, each from guard
  table through the search to the readout;
- ``pipeline.blind_spot_sweep`` and ``pipeline.snr_sweep``: a sweep's
  conditions.

A pool has one worker per CPU in the process's affinity mask, so ``taskset
-c 0`` runs everything in-process. In a ``multiprocessing`` child process,
such as a pool worker, the map runs in-process too, so pools never nest.
Workers start by the platform's default method, fork on Linux. The pool
does not ask for spawn: a spawned worker imports numpy and the package
again, in each of the up to two pools of a ``run``.
"""

from __future__ import annotations

import os
import sys
from concurrent import futures


def workers() -> int:
    """The workers a ``pool_map`` here may use: the CPUs in this process's
    affinity mask, or 1 inside a ``multiprocessing`` child."""
    # a child has imported multiprocessing; checking it costs the parent
    # no import
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def pool_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, over a process pool of ``workers()``
    workers (at most one per item) when that is more than one.

    Results come back in item order, and the first failing item raises its
    own exception, as in the serial loop. ``fn`` and its arguments are
    pickled, so they must be importable by name.
    """
    count = min(len(iterables[0]), workers())
    if count <= 1:
        return list(map(fn, *iterables))
    # futures loads its process module (and multiprocessing) on first use
    with futures.ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, *iterables))
