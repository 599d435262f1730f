"""Joint detection→offload study: what detection errors cost, end to end.

The paper's argument is a chain — detect remote peers (Section 3),
estimate the traffic that could be offloaded over them (Section 4), and
price the outcome (Sections 2.1 + 5).  The other studies run each link
with an oracle input; this example runs the chain with the *measured*
link between them.  Per seed:

1. a detection world is built and the full Section 3 trial runs
   (campaign → filters → ground-truth validation), yielding that trial's
   precision, recall and false-positive rate;
2. the same seed's offload world gets an oracle remote-peer map at the
   detection world's measured remote fraction, and the trial's confusion
   is replayed onto it — missed peers disappear from the map, false
   positives appear as phantoms;
3. the *detected* map (not the oracle) feeds the offload estimator and
   the 95th-percentile bill, so the report shows the oracle-vs-detected
   offload gap and the error in the savings an operator would forecast
   from its own imperfect peer map.

Run with::

    PYTHONPATH=src python examples/joint_study.py

It finishes in a few seconds (mini 3-IXP detection world + the ~3k-AS
offload world).  The second variant raises every pathological behaviour
rate 4× — a robustness result: the filters discard far more candidates,
but precision/recall and hence the billed numbers barely move, which is
exactly the property the joint chain exists to check (a fragile filter
stack would show up here as a widening gap and forecast error).  ``repro
study joint`` and ``repro scenarios run joint`` are the CLI front ends;
setting ``StudyConfig.out_dir`` makes the run resumable.
"""

from dataclasses import replace

from repro.experiments import (
    JointStudy,
    JointVariant,
    StudyConfig,
    render_report,
    run_study,
)
from repro.experiments.scenarios import scaled_behavior_rates
from repro.sim.scenarios import joint_preset_configs


def main() -> None:
    detection_world, offload_world = joint_preset_configs("small")
    calibrated = JointVariant(
        name="calibrated",
        detection_world=detection_world,
        offload_world=offload_world,
    )
    # 4x the pathological behaviour rates: the filters discard more
    # interfaces; the point of the comparison is that the *surviving*
    # calls stay accurate, so the billed numbers should barely move.
    stressed = JointVariant(
        name="stressed-4x",
        detection_world=replace(
            detection_world, rates=scaled_behavior_rates(4.0)
        ),
        offload_world=offload_world,
    )
    study = JointStudy(variants=(calibrated, stressed))
    result = run_study(study, StudyConfig(seeds=tuple(range(16))))
    print(render_report(study, result))
    print()
    print(
        "Reading: 'detected offload' is the fraction estimated from the "
        "measured peer map; 'gap' is what detection misses leave on the "
        "table, and 'billing forecast error' is how far the bill savings "
        "forecast from that map overshoots what the phantom peers can "
        "actually deliver.  The stressed variant matching the calibrated "
        "one is the filter stack's robustness showing through: 4x the "
        "pathology costs analyzed coverage, not call accuracy."
    )


if __name__ == "__main__":
    main()
