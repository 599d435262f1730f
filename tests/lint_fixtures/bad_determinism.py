"""Known-bad fixture: every determinism rule should fire in here."""

import random                                   # det-random
from time import monotonic, perf_counter as tick

import numpy as np


def draw_everything(counts: dict, items: set) -> list:
    value = random.random()                     # det-random
    noise = np.random.rand(3)                   # det-np-random
    unseeded = np.random.default_rng()          # det-np-random
    import time

    stamp = time.time()                         # det-wallclock
    started = time.perf_counter()               # det-wallclock
    ticks = time.perf_counter_ns()              # det-wallclock
    cpu = time.process_time()                   # det-wallclock
    elapsed = tick() - monotonic()              # det-wallclock x2
    import os

    token = os.urandom(8)                       # det-entropy
    pair = counts.popitem()                     # det-popitem
    ordered = [x for x in items]                # det-set-iter
    for item in {1, 2, 3}:                      # det-set-iter
        ordered.append(item)
    return [value, noise, unseeded, stamp, started, ticks, cpu, elapsed,
            token, pair, ordered]
