"""Deterministic randomness utilities.

Every stochastic component takes an explicit seed or ``numpy`` generator so
that campaigns, worlds, and benchmarks are bit-for-bit reproducible.  The
helpers here derive independent child streams from a root seed, so adding a
new consumer never perturbs the draws of existing ones.

RNG stream discipline
---------------------
The probing campaign derives exactly one stream per
``(seed, "campaign", ixp, operator)`` label path — one independent
generator per LG server per campaign.  Within a stream, the probe engine
draws in a fixed, documented order (round start times, then per sweep
jitter, congestion groups in plan order, response loss, slow-path
processing — see :mod:`repro.lg.batch`), so a seed is bit-for-bit
reproducible.  The per-probe reference engine in ``tests/reference/``
consumes the *same streams in a different order*; the two therefore
agree statistically rather than sample-for-sample, and results that
must hold across them are asserted with tolerances, never exact draws.
World generation uses
the disjoint label paths ``(seed, "ixp", acronym)`` etc., so campaign
replays never disturb the world.

Fault injection draws from its own ``(seed, "faults", <kind>, ...)``
family (see :mod:`repro.faults.schedule` for the full list: pseudowire
dark windows, port flaps, LG outages, rate-limit storms, probe loss,
and retry backoff).  Because these paths are disjoint from the
campaign and world streams, enabling or disabling chaos never perturbs
the fault-free draws — a zero-intensity faulted run is byte-identical
to an unfaulted one.

The full per-engine stream inventory is generated by ``repro lint
--draw-programs`` and mechanically enforced by ``make lint`` (see
:mod:`repro.devtools.lint`): stream tags must be built from literal
parts, and the engines of every multi-engine subsystem must create
identical streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator for ``seed``.

    Accepts an existing Generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.  Centralising this keeps call sites one-line.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(root_seed: int, *labels: str | int) -> int:
    """Derive a stable 63-bit child seed from a root seed and labels.

    The derivation hashes ``root_seed`` together with the labels, so each
    (root, label-path) pair maps to an independent, reproducible stream:

    >>> derive_seed(42, "campaign", "AMS-IX") != derive_seed(42, "campaign", "LINX")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def child_rng(root_seed: int, *labels: str | int) -> np.random.Generator:
    """Shorthand for ``make_rng(derive_seed(root_seed, *labels))``."""
    return make_rng(derive_seed(root_seed, *labels))


def weighted_top_k(
    rng: np.random.Generator, weights: np.ndarray, k: int
) -> np.ndarray:
    """Weighted sample of ``k`` indices without replacement.

    Exponential-key (Efraimidis–Spirakis) selection: draw one uniform per
    item, rank by ``u ** (1 / w)`` descending, take the top ``k`` —
    distributionally identical to sequential weighted draws without
    replacement, realized as a single vectorized draw plus one argsort.
    Consumes exactly ``len(weights)`` uniforms from ``rng``; weights must
    be positive (a zero weight makes its key collapse to 0, i.e. the item
    is only drawn once everything else is exhausted).
    """
    keys = rng.random(len(weights)) ** (1.0 / weights)
    return np.argsort(keys)[::-1][:k]


#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sorted_probe_search(
    cdf: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.searchsorted(cdf, probes, side="right")``, probed in sorted order.

    Returns ``(hits, order)``: ``hits`` has the shape of ``probes`` and
    equals numpy's ``searchsorted`` entry for entry (probes equal to a
    CDF entry and flat runs of the CDF included); ``order`` is the
    argsort of the flattened probes, so ``hits.ravel()[order]`` is
    non-decreasing.  Binary searches made in ascending probe order walk
    neighbouring paths through ``cdf`` and stay in cache: a mega world's
    187k stub-provider probes into a 6k-entry CDF take about half the
    time they take in random order.
    """
    flat = probes.ravel()
    order = np.argsort(flat)
    found = np.searchsorted(cdf, flat[order], side="right")
    hits = np.empty_like(found)
    hits[order] = found
    return hits.reshape(probes.shape), order


def weighted_choice(
    rng: np.random.Generator, p: np.ndarray, count: int
) -> np.ndarray:
    """``rng.choice(len(p), size=count, replace=False, p=p)``, draw for draw.

    numpy's own loop: each round draws one uniform per missing index,
    zeroes the probabilities already drawn, normalises ``cumsum(p)`` by
    its last entry, inverts it with ``searchsorted(side="right")`` and
    keeps each distinct hit at its earliest draw.  Here the inversion
    goes through :func:`sorted_probe_search`, whose sorted hits give the
    distinct values as runs, so no ``np.unique`` is needed.  The result
    and the generator's state afterwards equal ``choice``'s
    (``tests/test_weighted_sampling.py`` holds them to it).  ``p`` is
    validated as ``choice`` does: a NaN or negative entry, a sum off 1
    by more than √eps, or fewer positive entries than ``count`` raise
    ``ValueError``.
    """
    p = np.array(p, dtype=np.float64)
    if not (p.min(initial=np.inf) >= 0 and abs(p.sum() - 1.0) <= _P_ATOL):
        raise ValueError("probabilities must be non-negative and sum to 1")
    if np.count_nonzero(p) < count:
        raise ValueError("fewer positive probabilities than draws")
    found = np.empty(count, dtype=np.int64)
    cdf = np.empty_like(p)
    done = 0
    while done < count:
        draws = rng.random(count - done)
        np.cumsum(p, out=cdf)
        cdf /= cdf[-1]
        hits, order = sorted_probe_search(cdf, draws)
        runs = hits[order]
        starts = np.flatnonzero(runs[1:] != runs[:-1]) + 1
        first = np.minimum.reduceat(order, np.concatenate(([0], starts)))
        first.sort()
        new = hits[first]
        found[done:done + len(new)] = new
        p[new] = 0.0
        done += len(new)
    return found


def double_pareto_rates(
    count: int,
    rng: np.random.Generator,
    top_rate: float,
    bend_rank: int,
    head_exponent: float,
    tail_exponent: float,
    noise_sigma: float = 0.25,
) -> np.ndarray:
    """Heavy-tailed per-rank rates with a bend, as in the paper's Figure 5a.

    Rates decay as ``rank^-head_exponent`` up to ``bend_rank`` and faster
    (``rank^-tail_exponent``) beyond it, matching the observed "bend toward a
    faster decline" around rank 20,000 in the RedIRIS data.  Log-normal noise
    makes individual draws realistic while preserving the rank profile.
    """
    ranks = np.arange(1, count + 1, dtype=float)
    head = ranks ** (-head_exponent)
    bend = float(bend_rank)
    tail_scale = bend ** (-head_exponent) / bend ** (-tail_exponent)
    tail = tail_scale * ranks ** (-tail_exponent)
    profile = np.where(ranks <= bend, head, tail)
    rates = top_rate * profile
    if noise_sigma > 0:
        rates = rates * rng.lognormal(mean=0.0, sigma=noise_sigma, size=count)
    return rates
