"""The set-cover kernel and the cone-CSR assembly on hand-worked inputs,
and the kernel's row canonicalisation against its former key sort."""

from __future__ import annotations

import numpy as np

from repro.core.offload.bitsets import cone_rows, greedy_cover_rows
from repro.sim.offload_world import MemberArrays, sorted_distinct


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


def key_sort_cover_rows(indptr, indices, weights, limit):
    """The kernel as it canonicalised rows before: one int64 key per
    entry (``row * ncols + column``) sorted and deduplicated at once,
    then split back into rows by ``divmod`` and ``searchsorted``."""
    row_count = len(indptr) - 1
    ncols = len(weights)
    weights = np.asarray(weights, dtype=np.float64)
    cols = np.asarray(indices, dtype=np.intp)
    bounds = np.asarray(indptr, dtype=np.intp)
    ascending = cols[1:] > cols[:-1]
    inner = bounds[1:-1]
    ascending[inner[(inner > 0) & (inner < cols.size)] - 1] = True
    if not ascending.all():
        keys = sorted_distinct(
            np.repeat(np.arange(row_count) * ncols, np.diff(bounds)) + cols
        )
        rows, cols = np.divmod(keys, ncols)
        bounds = np.searchsorted(rows, np.arange(row_count + 1))
    live_weights = weights[cols]
    covered = np.zeros(ncols, dtype=bool)
    active = np.ones(row_count, dtype=bool)
    for rank in range(1, min(limit, row_count) + 1):
        gains = np.zeros(row_count)
        filled = np.flatnonzero(bounds[1:] > bounds[:-1])
        if filled.size:
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


def random_csr(case: np.random.Generator, family: str):
    """Rows of up to 60 columns (some empty) over up to 300 columns."""
    row_count = int(case.integers(1, 40))
    # "narrow" rows repeat a few columns, so one row's last column often
    # equals the next row's first once both are sorted.
    ncols = int(case.integers(1, 5 if family == "narrow" else 300))
    lengths = case.integers(0, min(ncols, 60) + 1, size=row_count)
    lengths[case.random(row_count) < 0.2] = 0
    rows = []
    for length in lengths.tolist():
        if family in ("repeats", "narrow"):  # unsorted, may repeat
            rows.append(case.integers(0, ncols, size=length))
        else:  # distinct columns, in draw order or ascending
            row = case.choice(ncols, size=length, replace=False)
            rows.append(np.sort(row) if family == "ascending" else row)
    indptr = np.zeros(row_count + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate(rows).astype(np.int64)
    return indptr, indices, ncols


class TestCanonicalisationOracle:
    FAMILIES = ("repeats", "narrow", "draw-order", "ascending")

    def test_matches_the_key_sort_on_random_csrs(self):
        for case_id in range(800):
            case = np.random.default_rng([22, case_id])
            family = self.FAMILIES[case_id % len(self.FAMILIES)]
            indptr, indices, ncols = random_csr(case, family)
            variant = case_id // len(self.FAMILIES)
            if variant % 2:  # tied weights, zeros included
                weights = case.choice([0.0, 0.1, 0.2, 0.3, 1.0], size=ncols)
            else:
                weights = case.random(ncols)
            if variant // 2 % 2:  # a read-only int32 view, as shm attaches
                indices = indices.astype(np.int32)
                indices.flags.writeable = indptr.flags.writeable = False
            limit = int(case.integers(1, len(indptr) + 2))
            expected = [
                (rank, row, covered.copy())
                for rank, row, covered in key_sort_cover_rows(
                    indptr, indices, weights, limit
                )
            ]
            got = [
                (rank, row, covered.copy())
                for rank, row, covered in greedy_cover_rows(
                    indptr, indices, weights, limit
                )
            ]
            assert len(got) == len(expected), case_id
            for (r1, b1, c1), (r2, b2, c2) in zip(got, expected):
                assert (r1, b1) == (r2, b2), (case_id, family)
                assert np.array_equal(c1, c2), (case_id, family)


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
