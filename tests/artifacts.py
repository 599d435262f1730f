"""Study-artifact helpers shared by the resume suites."""

from __future__ import annotations

import json


def read_artifact(path):
    """An artifact's header and its rows, each parsed from its JSON line."""
    header, *rows = map(json.loads, path.read_text().splitlines())
    return header, rows


def write_artifact(path, header, rows):
    """Write ``header`` and ``rows`` as an artifact: one JSON line each."""
    path.write_text("".join(json.dumps(line) + "\n" for line in (header, *rows)))


def write_v1_artifact(path, header, rows, timing):
    """Rewrite ``rows`` as the v1 schema wrote them: timing inside ``result``."""
    v1_rows = []
    for row in rows:
        row = {key: value for key, value in row.items() if key != "timings"}
        v1_rows.append({**row, "result": {**row["result"], **timing}})
    write_artifact(path, {**header, "schema": "study_trials/v1"}, v1_rows)
