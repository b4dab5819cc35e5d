"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same code runs up to about twice as slowly, in CPU time
as well as in wall time, for stretches from under a second to a minute, as
neighbours load the machine. The benchmark therefore times this kernel before
every operation of a round and once after the round, and reports each phase
in reference seconds:

    reference seconds = phase wall seconds * REFERENCE_S / mean kernel seconds

where the mean is over the samples taken around the phase (see
Round.reference_s in workloads.py). The kernel does not call gclbench, so a
change to the program cannot move it. It mixes the kinds of work the program
does (dense products, a neighbour gather and sum like a sparse propagation
step, element-wise maths, and an interpreted loop building strings in a
dict) so that it slows down with the host as the program does.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# About the kernel's median wall time inside a benchmark run on a 2-vCPU
# 2.0 GHz Xeon VM with one BLAS thread. It only scales the reported values, so
# that a reference second reads about like a wall second on that host.
REFERENCE_S = 0.075

_N, _D, _FANIN = 1800, 64, 4


def _inputs():
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((_N, _D))
    w = rng.standard_normal((_D, _D)) / 8.0
    neighbours = rng.integers(0, _N, _N * _FANIN)
    return x, 0.5 * x, w, neighbours


_X, _HALF_X, _W, _NEIGHBOURS = _inputs()
# Every array the kernel writes is allocated here, once: a kernel that
# allocated would run at a speed set by the allocator's state, which the
# program's own allocations change.
_H = np.empty((_N, _D))
_T = np.empty((_N, _D))
_GATHERED = np.empty((_N * _FANIN, _D))


def _kernel() -> float:
    h = _H
    np.copyto(h, _X)
    for _ in range(16):
        # A dense product, a neighbour gather and sum (the shape of a sparse
        # propagation step) and an element-wise activation.
        np.matmul(h, _W, out=_T)
        np.take(_T, _NEIGHBOURS, axis=0, out=_GATHERED)
        np.sum(_GATHERED.reshape(_N, _FANIN, _D), axis=1, out=h)
        np.tanh(h, out=h)
        np.add(h, _HALF_X, out=h)
    words = {}
    for i in range(40000):
        key = i % 1009
        words[key] = f"Record {i}: {key * 3}"
    ordered = sorted(words.values())
    return float(h[0, 0]) + len(ordered[0])


def sample() -> float:
    """Wall seconds of one run of the kernel.

    The cycle collector is off while it runs, so that the size of the heap the
    program leaves behind does not change the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
