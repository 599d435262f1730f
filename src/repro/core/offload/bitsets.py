"""Shared cone-coverage machinery for the offload estimators.

Both reachability metrics — transit traffic (:mod:`.potential` /
:mod:`.greedy`) and address space (:mod:`.reachability`) — and the
mega study's exchange expansion run on the same two kernels:

* :func:`cone_rows` assembles the (IXP × column) coverage of one peer
  group as a deduplicated CSR: a row is the union of the cones of the
  group's members at that IXP, gathered from the world's
  :class:`~repro.sim.offload_world.MemberArrays`;
* :func:`greedy_cover_rows` drives a greedy set-cover expansion over such
  a CSR.

Selection rule
--------------
Per rank, every still-active row's gain is the sum of the weights of its
*uncovered* columns: one float64 ``np.add.reduceat`` segment over the
row's entries in ascending column order, so the association order is
fixed by the set alone.  That canonical order (ascending, no repeats)
is the one summed in, whatever order a row arrives in: rows already
ascending (the cone rows) are used as they are; otherwise each row is
sorted in place on a copy of the entries, and repeated columns are
dropped only when some row has them (a mega world's membership rows
come in draw order, without repeats).  The pick is the first argmax,
i.e. the lowest row among equal gains (alphabetical for acronym-sorted
rows).  The pick's columns then count as covered and the kernel drops
every covered entry, so later ranks only touch what is left (on the
paper world the live entries fall from ~260k to ~16k after rank 1).
A gain depends only on the set of uncovered columns, so two rows with
the same uncovered set tie exactly whatever their histories.

Why exact float64 rather than a float32 matrix-vector product: the
product's rounding depends on which CPU kernel the BLAS build dispatches
to, so a near-tie could pick a different IXP on a different machine.
Reported numbers never come from these gains — callers take float64
masked sums over ``covered``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.offload_world import MemberArrays, gather_runs


def cone_rows(
    members: MemberArrays,
    selected: np.ndarray,
    cone_indptr: np.ndarray,
    cone_indices: np.ndarray,
    ncols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The (IXP × column) coverage of the ``selected`` members, as a CSR.

    ``selected`` is a boolean mask over the members; ``cone_indptr`` /
    ``cone_indices`` give each member's cone as column indices (< ``ncols``).
    Row ``r`` of the result, ``indices[indptr[r]:indptr[r + 1]]``, is the
    union of the cones of the selected members seated at IXP row ``r``:
    ascending, without duplicates.
    """
    row_count = len(members.ixps)
    entry_rows = np.repeat(
        np.arange(row_count, dtype=np.int64), np.diff(members.ixp_indptr)
    )
    keep = selected[members.ixp_members]
    seated = members.ixp_members[keep]
    starts = cone_indptr[seated]
    lengths = cone_indptr[seated + 1] - starts
    columns = gather_runs(cone_indices, starts, lengths)
    # Deduplicate through one flat (row × column) bitmap read back in
    # row-major order, which also sorts each row.
    flat = np.zeros(row_count * ncols, dtype=bool)
    flat[np.repeat(entry_rows[keep] * ncols, lengths) + columns] = True
    keys = np.flatnonzero(flat)
    row_starts = np.arange(row_count + 1, dtype=np.int64) * ncols
    indptr = np.searchsorted(keys, row_starts)
    return indptr, keys - np.repeat(row_starts[:-1], np.diff(indptr))


def greedy_cover_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    limit: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Greedy set-cover order over a row → column CSR.

    Yields ``(rank, row, covered)`` per step: ``row`` is the first argmax
    of the exact uncovered-weight gains (see the module docstring) among
    the still-active rows; ``covered`` is the running boolean column
    coverage after adding it, updated in place on the next step.  Rows
    may list their columns in any order and repeat them.  Stops after
    ``limit`` steps or when no active row remains; callers ``break`` on
    their own no-gain condition.
    """
    row_count = len(indptr) - 1
    ncols = len(weights)
    weights = np.asarray(weights, dtype=np.float64)
    # The live entries: columns still uncovered, grouped by row as in the
    # CSR, with ``bounds`` as their row pointer.
    cols = np.asarray(indices)
    bounds = np.asarray(indptr, dtype=np.intp)
    inner = bounds[1:-1]
    # Entries ``i`` and ``i + 1`` that sit in different rows.
    straddle = inner[(inner > 0) & (inner < cols.size)] - 1
    ascending = cols[1:] > cols[:-1]
    ascending[straddle] = True
    if not ascending.all():
        # Canonical entry order: ascending columns within each row, no
        # repeats — the order every gain is summed in.  Each row is
        # sorted in place on a copy in the input's dtype (an attached
        # shared-memory view is read-only).
        cols = cols.copy()
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            cols[lo:hi].sort()
        repeat = cols[1:] == cols[:-1]
        repeat[straddle] = False
        if repeat.any():
            keep = np.concatenate(([True], ~repeat))
            cols = cols[keep]
            kept = np.zeros(keep.size + 1, dtype=np.intp)
            np.cumsum(keep, out=kept[1:])
            bounds = kept[bounds]
    # Native-width indices: the gathers below run about twice as fast.
    cols = cols.astype(np.intp, copy=False)
    live_weights = weights[cols]
    covered = np.zeros(ncols, dtype=bool)
    active = np.ones(row_count, dtype=bool)
    for rank in range(1, min(limit, row_count) + 1):
        gains = np.zeros(row_count)
        filled = np.flatnonzero(bounds[1:] > bounds[:-1])
        if filled.size:
            # One fixed-order float64 reduction per non-empty row.
            gains[filled] = np.add.reduceat(live_weights, bounds[filled])
        gains[~active] = -np.inf
        best = int(np.argmax(gains))
        covered[indices[indptr[best]:indptr[best + 1]]] = True
        active[best] = False
        fresh = np.flatnonzero(~covered[cols])
        cols = cols[fresh]
        live_weights = live_weights[fresh]
        bounds = np.searchsorted(fresh, bounds)
        yield rank, best, covered
