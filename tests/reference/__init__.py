"""Scalar reference engines: the oracles the equivalence suites compare to.

Each world-builder module here is the seed implementation's
one-draw-at-a-time realization of a builder whose product path in
``src/`` is an array program:

* :mod:`tests.reference.netpool` — the per-network pool loop and an
  object pool with its propensity sampler;
* :mod:`tests.reference.detection_world` — per-interface member draws
  and realization on that object pool, into the objects below;
* :mod:`tests.reference.offload_world` — one-network-at-a-time insertion
  through the fully checked graph APIs.

A product offload world is index arrays.  The seed implementation's AS
graph (:mod:`tests.reference.relationships`, with
:func:`~tests.reference.relationships.mega_asgraph` bridging a mega world
into it), its Gao–Rexford best paths (:mod:`tests.reference.routing`)
and its breadth-first customer cones (:mod:`tests.reference.cone`) are
the oracles of the product's edge and route arrays and member cones
(``tests/test_offload_routes.py``).

A product detection world is one interface table; the seed
implementation's object model of it is kept here:

* :mod:`tests.reference.objects` — devices, ICMP echo, pseudowires,
  ports, fabrics, IXPs with members, circuit-keeping providers and the
  one-ping-at-a-time looking-glass server;
* :mod:`tests.reference.registry` — registry records, the three sources
  and the one-address-at-a-time identification pipeline;
* :mod:`tests.reference.views` — :class:`~tests.reference.views.ObjectWorld`
  (a product world realized into those objects, with per-interface
  ground truth) and the object-model route-server cross-check and
  Section 6 inventory the product's table readers are held to
  (``tests/test_table_readers.py``).

The detection pipeline's per-call engines are kept the same way:

* :mod:`tests.reference.campaign` — the per-probe campaign engine (one
  client query per slot, over a world's object view) and a probe-plan
  compiler over fabric objects;
* :mod:`tests.reference.filters` — the per-stage filter loop over
  list-of-``EchoReply`` measurements, with the consistency envelope and
  reply packing it uses.

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
