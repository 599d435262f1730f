"""One pause of the cyclic garbage collector for allocation bursts.

World builds and batched measurements allocate tens of thousands of
long-lived objects and arrays at once.  Generational collections that
fire mid-burst scan them again and again while reclaiming nothing, so
each such site runs inside :func:`paused_gc` and states its reason.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend automatic collection for the ``with`` block.

    Only a pause that found collection enabled re-enables it, so a
    pause nested inside another leaves collection disabled on exit.
    """
    resume = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if resume:
            gc.enable()
