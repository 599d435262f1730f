"""The set-cover kernel and the cone-CSR assembly on hand-worked inputs."""

from __future__ import annotations

import numpy as np

from repro.core.offload.bitsets import cone_rows, greedy_cover_rows
from repro.sim.offload_world import MemberArrays


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.cumsum([0, *(len(r) for r in rows)])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    return indptr, indices


def _run(rows, weights, limit=None):
    """``(row, covered columns)`` per step."""
    indptr, indices = _csr(rows)
    return [
        (row, np.flatnonzero(covered).tolist())
        for _, row, covered in greedy_cover_rows(
            indptr, indices, np.asarray(weights, dtype=float),
            len(rows) if limit is None else limit,
        )
    ]


class TestGreedyCoverRows:
    def test_largest_uncovered_weight_first(self):
        # Row 1 holds the heaviest column; afterwards row 0 only adds
        # column 0 while row 2 still adds 3 + 4.
        steps = _run([[0, 1], [1, 2], [3, 4]], [1.0, 2.0, 5.0, 1.5, 1.5])
        assert steps == [
            (1, [1, 2]), (2, [1, 2, 3, 4]), (0, [0, 1, 2, 3, 4]),
        ]

    def test_ties_go_to_the_lowest_row(self):
        steps = _run([[1], [0], [2]], [1.0, 1.0, 1.0])
        assert [row for row, _ in steps] == [0, 1, 2]

    def test_same_uncovered_set_ties_exactly(self):
        # One of rows 1 and 2 loses column 1 to row 0's pick, the other
        # never had it; both are left with {2, 3} and must tie exactly,
        # so the lower row wins.  With these weights a history-dependent
        # gain (the row total minus what got covered) would come out
        # 0.5000000000000001 against 0.5 and split the tie.
        weights = [10.0, 0.1, 0.2, 0.3]
        steps = _run([[0, 1], [1, 2, 3], [2, 3]], weights, limit=2)
        assert [row for row, _ in steps] == [0, 1]
        steps = _run([[0, 1], [2, 3], [1, 2, 3]], weights, limit=2)
        assert [row for row, _ in steps] == [0, 1]

    def test_empty_rows_gain_nothing(self):
        steps = _run([[], [2], [], [0, 1]], [1.0, 1.0, 3.0, 0.0])
        assert steps == [
            (1, [2]), (3, [0, 1, 2]), (0, [0, 1, 2]), (2, [0, 1, 2]),
        ]

    def test_all_zero_weights_pick_row_zero_first(self):
        indptr, indices = _csr([[1], [0, 2]])
        rank, row, covered = next(
            greedy_cover_rows(indptr, indices, np.zeros(3), 2)
        )
        assert (rank, row, covered.tolist()) == (1, 0, [False, True, False])

    def test_limit_beyond_the_row_count(self):
        indptr, indices = _csr([[0], [1]])
        steps = list(
            greedy_cover_rows(indptr, indices, np.array([1.0, 2.0]), 10)
        )
        assert [(rank, row) for rank, row, _ in steps] == [(1, 1), (2, 0)]

    def test_rows_in_draw_order_with_repeats(self):
        # Unsorted rows (the mega world's draw order) and a repeated
        # column pick exactly as their sorted, deduplicated form.
        weights = [0.3, 0.1, 0.7, 0.2, 0.9]
        drawn = _run([[4, 0, 2], [3, 1, 3, 0], [2, 4]], weights)
        tidy = _run([[0, 2, 4], [0, 1, 3], [2, 4]], weights)
        assert drawn == tidy
        assert [row for row, _ in drawn] == [0, 1, 2]
        # One set listed in two orders still ties exactly: summed in
        # listed order, 0.3 + 0.2 + 0.1 and 0.1 + 0.2 + 0.3 differ.
        steps = _run([[3, 2, 1], [1, 2, 3]], [0.0, 0.1, 0.2, 0.3], limit=1)
        assert [row for row, _ in steps] == [0]


def _members(memberships, cones) -> MemberArrays:
    def cone_csr(asns):
        rows = [cones[a] for a in asns.tolist()]
        return np.cumsum([0, *(len(r) for r in rows)]), np.array(
            [c for r in rows for c in r], dtype=np.int64
        )

    return MemberArrays.build(
        {
            ixp: np.array(sorted(m), dtype=np.int64)
            for ixp, m in memberships.items()
        },
        lambda asns: np.zeros(asns.size, dtype=np.int8),
        cone_csr,
    )


class TestConeRows:
    def test_rows_are_sorted_unions_of_selected_cones(self):
        members = _members(
            {"B-IX": {10, 20}, "A-IX": {20, 30}, "C-IX": {30}},
            {10: [1, 4], 20: [1, 2], 30: [5]},
        )
        assert members.ixps == ("A-IX", "B-IX", "C-IX")
        assert members.asns.tolist() == [10, 20, 30]
        everyone = np.ones(3, dtype=bool)
        indptr, indices = cone_rows(
            members, everyone, members.cone_indptr, members.cone_indices, 6
        )
        rows = [indices[indptr[r]:indptr[r + 1]].tolist() for r in range(3)]
        assert rows == [[1, 2, 5], [1, 2, 4], [5]]

    def test_unselected_members_add_nothing(self):
        members = _members(
            {"A-IX": {10, 20}, "B-IX": {20}},
            {10: [0], 20: [1, 2]},
        )
        indptr, indices = cone_rows(
            members, np.array([True, False]),
            members.cone_indptr, members.cone_indices, 3,
        )
        assert indptr.tolist() == [0, 1, 1]
        assert indices.tolist() == [0]
