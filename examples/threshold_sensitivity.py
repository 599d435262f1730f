"""Why 10 ms?  The remoteness-threshold trade-off, measured.

The paper chooses a deliberately high threshold to avoid false positives,
accepting false negatives (Section 3.1, "Threshold for remoteness").  With
simulator ground truth the trade-off becomes measurable: this example
sweeps the threshold and prints the precision/recall curve, then shows
what dropping individual filters would cost.

Run:  python examples/threshold_sensitivity.py   (~10 s)
"""

from repro import (
    CampaignConfig,
    DetectionWorldConfig,
    ProbeCampaign,
    build_detection_world,
)
from repro.analysis.tables import render_table
from repro.core.detection import (
    FILTER_ORDER,
    FilterPipeline,
    validate_against_truth,
)
from repro.core.detection.results import build_result
from repro.ixp.catalog import paper_catalog


def main() -> None:
    # A half-size world keeps this example snappy.
    specs = tuple(paper_catalog())[:10]
    print(f"Building a {len(specs)}-IXP world and running the campaign...")
    world = build_detection_world(DetectionWorldConfig(seed=21, specs=specs))
    campaign = ProbeCampaign(world, CampaignConfig(seed=21))
    result = campaign.run()

    # The filters do not depend on the threshold, so each point is one
    # confusion matrix over the already-filtered result.
    rows = []
    for threshold in (2.5, 5.0, 7.5, 10.0, 15.0, 20.0):
        report = validate_against_truth(world, result, threshold_ms=threshold)
        rows.append([
            f"{threshold:g} ms",
            sum(1 for i in result.analyzed if i.remote(threshold)),
            report.false_positives,
            report.false_negatives,
            round(report.precision, 4),
            round(report.recall, 4),
        ])
    print()
    print(render_table(
        ["threshold", "remote calls", "FP", "FN", "precision", "recall"],
        rows,
        title="Remoteness-threshold sweep (paper uses 10 ms)",
    ))
    print("The paper's threshold sits where precision saturates: raising it")
    print("further only trades away recall.")

    print("\nRe-collecting raw measurements for the filter ablation...")
    measurements = campaign.collect()
    pipeline = FilterPipeline()
    rows = []
    for dropped in (None, *FILTER_ORDER):
        # Stages never mutate their input: every run re-reads the same
        # raw measurements.
        filtered = build_result(
            measurements, pipeline.run(measurements, skip=dropped),
            threshold_ms=10.0,
        )
        report = validate_against_truth(world, filtered)
        rows.append([
            dropped or "(full pipeline)",
            filtered.analyzed_count(),
            report.false_positives,
            round(report.precision, 4),
        ])
    print()
    print(render_table(
        ["dropped filter", "analyzed", "false positives", "precision"],
        rows,
        title="Drop-one-filter ablation",
    ))


if __name__ == "__main__":
    main()
