"""Reference kernel that measures how fast the machine is running right now.

On a shared machine the same work can take 20-50 % longer for minutes at a
time, whatever program runs it.  The benchmark times this fixed kernel (plain
Python bytecode plus small numpy array operations, the two kinds of work
convexham does) before and after every round and scales the round's times to
the speed at which the kernel takes REFERENCE_S.  The kernel does not use
convexham, so a change to the program moves the scaled times exactly as it
moves the raw ones.
"""

import time

import numpy as np

# Median kernel time on the reference machine (Intel Xeon VM, 2 vCPUs).
REFERENCE_S = 0.02

_XS = np.random.default_rng(0).random(2000)
_YS = _XS[::-1].copy()


def scale(kernel_times):
    """Factor from times measured around these kernel timings to the reference speed."""
    return REFERENCE_S / (sum(kernel_times) / len(kernel_times))


def kernel_seconds():
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for _ in range(1500):
        a = _XS * _YS - _YS * _XS[::-1]
        (np.abs(a) > 0.5).any()
    return time.perf_counter() - t0
