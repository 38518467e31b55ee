"""The reference loop that every benchmark timing is normalized against.

The host this benchmark was built on is shared: the same pure-Python
loop can take 50% longer from one second to the next, and memory-heavy
work (a sweep over a thousand fleet members, a snapshot of a 10k-net
circuit) slows down even more than arithmetic when a neighbour contends
for the caches.  Each workload therefore times a fixed chunk right after
every cycle of its own work, in two halves:

* an arithmetic loop (dict lookups, tuple indexing, small-int
  arithmetic, a Python call per iteration), which follows CPU speed;
* a walk over a thousand small objects in shuffled order, which follows
  memory latency the way the fleet sweeps do.

A timing of class ``k`` is reported as ``raw / slowness``, where
``slowness = (1 - w_k) * arith / ARITH_NOMINAL_MS + w_k * walk /
WALK_NOMINAL_MS`` over the chunks of the cycles around it and ``w_k`` is
the class's walk share: the time the work would have taken had the host
run at its nominal speed.  The chunk uses no ``repro`` code and
allocates no garbage-collected objects, so no change to the program
under test can move it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: arithmetic-loop iterations of one chunk
REF_ITERATIONS = 1500
#: objects the memory walk visits
WALK_CELLS = 1024
#: median chunk halves inside the workloads on the host the benchmark
#: was tuned on (a 2-vCPU x86-64 VM, CPython 3.11.7)
ARITH_NOMINAL_MS = 0.28
WALK_NOMINAL_MS = 0.25
#: cycles on each side of a sample whose chunks set its speed factor
#: (host slow-downs come in bursts a few cycles long)
WINDOW_HALF = 2

_KEYS = tuple("k%d" % i for i in range(64))
_TABLE = {key: index for index, key in enumerate(_KEYS)}


class _Cell:
    """A walked object, shaped like a small fleet member: an instance
    dict with a few attributes, one of them a dict."""

    def __init__(self, index: int):
        self.bit = index
        self.name = "m%d" % index
        self.flag = bool(index & 1)
        self.table = {"a": index, "b": index + 1}


def _cells() -> List[_Cell]:
    cells = [_Cell(i) for i in range(WALK_CELLS)]
    random.Random(WALK_CELLS).shuffle(cells)
    return cells


_WALK = _cells()


def _step(value: int) -> int:
    return (value * 7 + 3) & 0xFF


def _arith(iterations: int = REF_ITERATIONS) -> int:
    table, keys, step = _TABLE, _KEYS, _step
    acc = 0
    for i in range(iterations):
        acc = (acc + table[keys[i & 63]] + step(i)) & 0xFFFF
    return acc


def _walk() -> int:
    acc = 0
    for cell in _WALK:
        acc += cell.bit + cell.table["a"]
        if cell.flag:
            acc ^= 1
    return acc


def time_ref() -> Tuple[float, float]:
    """One reference chunk: the wall times of its arithmetic half and of
    its memory walk, in ms."""
    start = time.perf_counter()
    _arith()
    middle = time.perf_counter()
    _walk()
    end = time.perf_counter()
    return (middle - start) * 1000.0, (end - middle) * 1000.0


def slowness(arith: float, walk: float, walk_share: float) -> float:
    """How much slower than nominal the host ran, for work whose speed
    follows memory latency by ``walk_share`` and CPU speed by the rest."""
    return (1.0 - walk_share) * arith / ARITH_NOMINAL_MS + walk_share * walk / WALK_NOMINAL_MS


def cycle_factors(arith: Sequence[float], walk: Sequence[float], walk_share: float,
                  half: int = WINDOW_HALF) -> List[float]:
    """Per-cycle speed factors for a run that timed one reference chunk
    after each cycle: ``1 / slowness`` of the median chunk over the
    ``2 * half + 1`` cycles centred on each cycle."""
    slow = [slowness(a, w, walk_share) for a, w in zip(arith, walk)]
    n = len(slow)
    return [1.0 / statistics.median(slow[max(0, c - half):min(n, c + half + 1)])
            for c in range(n)]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """p50 and p99 of ``samples``, their count, and how many lie beyond p99."""
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "p50": percentile(ordered, 0.50),
        "p99": percentile(ordered, 0.99),
        "beyond_p99": len(ordered) - math.ceil(0.99 * len(ordered)),
    }
