"""Scalar reference engines: the oracles the equivalence suites compare to.

Each world-builder module here is the seed implementation's
one-draw-at-a-time realization of a builder whose product path in
``src/`` is an array program:

* :mod:`tests.reference.netpool` — the per-network pool loop and an
  object pool with its propensity sampler;
* :mod:`tests.reference.detection_world` — per-interface member draws
  and realization on that object pool, with its own copy of the seed
  implementation's IXP, LG, anchor and registry scaffolding;
* :mod:`tests.reference.offload_world` — one-network-at-a-time insertion
  through the fully checked graph APIs.

The detection pipeline's per-call engines are kept the same way:

* :mod:`tests.reference.campaign` — the per-probe campaign engine (one
  client query per slot, over a world's object view) and a probe-plan
  compiler over fabric objects;
* :mod:`tests.reference.filters` — the per-stage filter loop over
  list-of-``EchoReply`` measurements.

:mod:`tests.reference.greedy` keeps the dense float32 greedy expansions
and the mega study's per-exchange loop that the sparse set-cover kernel
replaced (``tests/test_greedy_oracle.py``), and
:mod:`tests.reference.fitting` the one-floor-at-a-time decay fit that
the array-pass floor grid replaced (``tests/test_economics_fitting.py``).

The product never imports this package and pytest collects nothing from
it (no ``test_*`` modules).  ``tests/test_repro_lint.py`` checks
statically that each reference opens the same RNG streams as its
product, and ``tests/test_reference_digests.py`` pins their outputs.
"""
