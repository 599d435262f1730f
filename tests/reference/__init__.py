"""Scalar reference engines: the oracles the equivalence suites compare to.

Each world-builder module here is the seed implementation's
one-draw-at-a-time realization of a builder whose product path in
``src/`` is an array program:

* :mod:`tests.reference.netpool` — the per-network pool loop and an
  object pool with its propensity sampler;
* :mod:`tests.reference.detection_world` — per-interface member draws
  and realization on that object pool;
* :mod:`tests.reference.offload_world` — one-network-at-a-time insertion
  through the fully checked graph APIs.

:mod:`tests.reference.greedy` keeps the dense float32 greedy expansions
and the mega study's per-exchange loop that the sparse set-cover kernel
replaced (``tests/test_greedy_oracle.py``).

The product never imports this package and pytest collects nothing from
it (no ``test_*`` modules).  The references subclass or call the product
code for everything that is not an engine choice, so they cannot drift
on shared scaffolding; ``tests/test_repro_lint.py`` checks statically
that each opens the same RNG streams as its product builder, and
``tests/test_reference_digests.py`` pins their outputs.
"""
