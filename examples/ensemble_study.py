"""Multi-seed ensemble study: how robust are the detection headlines?

The paper reports one campaign; the simulator can rerun it under many
seeds and configuration variants and attach confidence intervals to
precision, recall and the per-filter discard counts.  This example runs a
16-seed ensemble of the 3-IXP mini world across three remoteness
thresholds (the paper's 10 ms plus a tight 5 ms and a loose 20 ms), in
parallel, and prints the aggregate report.

Run with::

    PYTHONPATH=src python examples/ensemble_study.py
"""

from repro.experiments import (
    DetectionStudy,
    StudyConfig,
    grid_variants,
    render_report,
    run_study,
)
from repro.sim.detection_world import DetectionWorldConfig
from repro.sim.scenarios import mini_specs


def main() -> None:
    study = DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=mini_specs()),
        axes={"campaign.remoteness_threshold_ms": (5.0, 10.0, 20.0)},
    ))
    config = StudyConfig(
        seeds=tuple(range(16)),
        workers=0,  # one process per core
    )
    result = run_study(study, config)
    print(render_report(study, result, per_ixp=True))
    print()
    print(
        "Reading the report: the 10 ms threshold's precision CI should sit "
        "at 100% (the paper's conservative-filter claim); the 5 ms variant "
        "trades precision for recall as sub-threshold 'short' circuits and "
        "far-metro direct tails cross the line."
    )


if __name__ == "__main__":
    main()
