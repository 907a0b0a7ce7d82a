"""A fixed pure-Python reference load that gauges the host's speed.

The benchmark runs on a shared host whose speed drifts by up to half
within a minute, for the whole process and on its CPU clock alike, so
no choice of clock removes the drift from a timing.  The run therefore
interleaves samples of this load with its ops and divides every timing
by the host's speed relative to `REFERENCE_S`:

    reported = measured * REFERENCE_S / median(samples of this run)

The load imports nothing from the program, so no change to the program
moves it; it does the kinds of work the solvers do (building and hashing
small tuple trees, memo lookups, frozenset algebra) in a few hundred
kilobytes, so that it slows down with the host much as the program does.
The correction is partial: densebench/README.md ("Host speed") gives how
far it tracks each kind of op.
"""

from __future__ import annotations

import random
import time

# The CPU seconds one sample took on a 2-vCPU shared virtual machine at
# its usual speed.  Only a scale: it converts the ratio back to seconds.
REFERENCE_S = 0.020


def _tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.randrange(6))
    kind = rng.randrange(3)
    if kind == 0:
        return ("not", _tree(rng, depth - 1))
    if kind == 1:
        return ("and", _tree(rng, depth - 1), _tree(rng, depth - 1))
    return ("box", rng.randrange(2), _tree(rng, depth - 1))


def _size(phi: tuple, memo: dict) -> int:
    got = memo.get(phi)
    if got is None:
        got = memo[phi] = 1 + sum(_size(x, memo) for x in phi[1:] if isinstance(x, tuple))
    return got


def _load() -> int:
    rng = random.Random(20240601)
    memo: dict = {}
    acc = 0
    for _ in range(120):
        acc += _size(_tree(rng, 7), memo)
    sets = [frozenset((rng.randrange(48), rng.randrange(48)) for _ in range(200)) for _ in range(40)]
    for a in sets:
        for b in sets[:8]:
            acc += len(a & b) + len(a | b) + (a <= b)
    return acc


def sample() -> float:
    """CPU seconds of the calling thread for one pass of the load."""
    start = time.thread_time()
    _load()
    return time.thread_time() - start
