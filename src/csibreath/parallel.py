"""The one process-pool map the package uses. Each of these is one
``pool_map``, with a pool of its own:

- ``traceio.write_trace``: the row ranges of a trace being written (the
  pool of the ``simulate`` command);
- ``traceio.read_trace``: the byte ranges of a trace file being read, only
  when no companion ``.npy`` table of it matches;
- ``pipeline.run_pipeline`` and ``pipeline.single_component_estimates``:
  the window ranges of a run or a baseline, each from guard table through
  the search to the readout, or from the reference pair's ratio to it;
- ``pipeline.blind_spot_sweep`` and ``pipeline.snr_sweep``: a sweep's
  conditions.

What a task binds, with ``functools.partial``, travels once per worker: the
mapped function is the pool's initializer argument, which a forked worker
inherits and a spawned one unpickles once. Only the per-item arguments and
the results are pickled per task. So a caller binds what every item shares
(a whole trace, a plan, a grid) and maps over small items, such as the
bounds of each item's own range.

A pool has one worker per CPU in the process's affinity mask, so ``taskset
-c 0`` runs everything in-process. In a ``multiprocessing`` child process,
such as a pool worker, the map runs in-process too, so pools never nest.
Workers start by the platform's default method, fork on Linux. The pool
does not ask for spawn: a spawned worker imports numpy and the package
again, in each of the up to two pools of a ``run``.

A pool task imports nothing its parent has not loaded. A forked worker
shares the parent's pages until it writes to them, and a module imported
after the fork is imported again in each worker, into private pages: in a
sweep the largest worker set the command's peak RSS. So the package imports
every module its tasks use at module level, by name: numpy loads
``numpy.random`` and ``numpy.fft`` only on first attribute access, and the
parent would otherwise never touch them before forking. ``numpy.random`` is
the simulator's alone, loaded with it by ``pipeline`` for the sweeps.
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


_task = None  # a pool worker's mapped function, set by ``_install``


def _install(fn) -> None:
    global _task
    _task = fn


def _call(*args):
    return _task(*args)


def pool_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, over a process pool of ``workers()``
    workers (at most one per item) when that is more than one.

    Results come back in item order, and the first failing item raises its
    own exception, as in the serial loop. The items and results, and ``fn``
    unless workers fork, must be picklable.
    """
    count = min(len(iterables[0]), workers())
    if count <= 1:
        return list(map(fn, *iterables))
    # futures loads its process module (and multiprocessing) on first use
    with futures.ProcessPoolExecutor(
        max_workers=count, initializer=_install, initargs=(fn,)
    ) as pool:
        return list(pool.map(_call, *iterables))
