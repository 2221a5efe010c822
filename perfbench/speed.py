"""Machine-speed probe for a shared, noisy host.

On a machine whose cores are shared with other tenants, the same Python
code runs up to twice as slowly for stretches of tens of seconds, so raw
times of two runs are not comparable. The benchmark therefore times a
small fixed kernel of its own (never fixspace code, so no change to the
package moves it) before and after every chunk of tasks, and scales the
chunk's task times by REF_S over the kernel's local time. Times are thus
reported in seconds at the speed the kernel runs at REF_S.

The kernel mixes what the package spends its time on: helper-function
calls doing modular arithmetic on list rows, permutation tuples, dict
lookups and products of small integers.
"""

import os
import time

# kernel() time on an idle core of a 2-core Intel Xeon VM, Python 3.11.7
REF_S = 0.000526
CHUNK_S = 0.1       # tasks between two probes run at least this long

_P = 13
_N = 12
# Vandermonde matrix on the nodes 1..12 mod 13: full rank
_BASE = [[pow(i + 1, j, _P) for j in range(_N)] for i in range(_N)]
_PERM = tuple((i * 3 + 1) % 17 for i in range(17))


def _mul(a, b):
    return a * b % _P


def _sub(a, b):
    return (a - b) % _P


def kernel():
    M = [row[:] for row in _BASE]
    r = 0
    for c in range(_N):
        pr = next((i for i in range(r, _N) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, _P)
        M[r] = [_mul(inv, x) for x in M[r]]
        for i in range(_N):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [_sub(x, _mul(f, y)) for x, y in zip(M[i], M[r])]
        r += 1
    h = _PERM
    seen = {}
    for k in range(150):
        h = tuple(_PERM[x] for x in h)
        seen[h] = k
    acc = [0] * 24
    for i, x in enumerate(range(3, 51, 2)):
        for j, y in enumerate(range(5, 53, 2)):
            acc[(i + j) % 24] += x * y
    return r, len(seen), sum(acc)


def probe() -> float:
    """Median seconds of five kernel runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def pin_to_current_cpu():
    """Keep this process and its children on the CPU it is running on, so
    that probes measure the core the tasks run on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def timed(tasks, run):
    """Run each task through run(task); returns (results, raw seconds,
    scaled seconds). A probe runs before the first task and after every
    chunk of at least CHUNK_S; a chunk's times are scaled by REF_S over
    the mean of the probes on either side of it."""
    results, raw, scaled = [], [], []
    clock = time.perf_counter
    before = probe()
    chunk_start, first = clock(), 0
    for j, task in enumerate(tasks):
        t0 = clock()
        results.append(run(task))
        raw.append(clock() - t0)
        if clock() - chunk_start >= CHUNK_S or j == len(tasks) - 1:
            after = probe()
            scale = 2 * REF_S / (before + after)
            scaled.extend(d * scale for d in raw[first:])
            before, chunk_start, first = after, clock(), j + 1
    return results, raw, scaled
