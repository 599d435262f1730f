"""The zero-copy shared-memory world transport and its study-engine path.

Three layers of contract: the segment primitive (aligned packing,
attach-side views, refcounted unlink, reserved names adopted by their
owner), the engine integration (worlds build in pool workers; shm and
pickle transports produce identical trials; export failures fall back
and are counted), and crash hygiene (a hard-killed worker must not leak
a single segment in ``/dev/shm``, and the resource tracker must have
nothing to say).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.engine import StudyConfig, Trial, run_study
from repro.experiments.mega import MegaStudy, MegaVariant
from repro.experiments.transport import (
    SegmentManager,
    attach_columns,
    segment_exists,
)
from repro.sim.megatopo import MegaWorldConfig

ROOT = Path(__file__).resolve().parents[1]


def sample_columns() -> dict[str, np.ndarray]:
    return {
        "asn": np.arange(10, dtype=np.int64) + 10_000,
        "propensity": np.linspace(0.1, 1.0, 7),
        "grid": np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8),
    }


def shm_snapshot() -> set[str]:
    return set(os.listdir("/dev/shm"))


class TestSegmentLifecycle:
    def test_round_trip_preserves_every_column(self):
        manager = SegmentManager()
        columns = sample_columns()
        try:
            descriptor = manager.create(columns)
            attached = attach_columns(descriptor)
            try:
                assert attached.arrays.keys() == columns.keys()
                for name, want in columns.items():
                    got = attached.arrays[name]
                    assert np.array_equal(got, want), name
                    assert got.dtype == want.dtype
                    assert not got.flags.writeable
            finally:
                attached.close()
        finally:
            manager.close_all()

    def test_columns_are_64_byte_aligned(self):
        manager = SegmentManager()
        try:
            descriptor = manager.create(sample_columns())
            for spec in descriptor.columns:
                assert spec.offset % 64 == 0, spec.name
        finally:
            manager.close_all()

    def test_object_columns_are_rejected(self):
        manager = SegmentManager()
        try:
            with pytest.raises(ConfigurationError):
                manager.create({"bad": np.array(["x", None], dtype=object)})
        finally:
            manager.close_all()

    def test_refcount_unlinks_at_zero(self):
        manager = SegmentManager()
        descriptor = manager.create(sample_columns(), refs=2)
        name = descriptor.segment
        assert segment_exists(name)
        manager.release(name)
        assert segment_exists(name)  # one reference still out
        manager.release(name)
        assert not segment_exists(name)
        assert manager.live_segments() == ()

    def test_bookkeeping_edge_cases(self):
        manager = SegmentManager()
        with pytest.raises(ConfigurationError):
            manager.create(sample_columns(), refs=0)
        manager.release("no-such-segment")  # double release: a no-op
        manager.close_all()

    def test_close_all_force_unlinks_regardless_of_refs(self):
        manager = SegmentManager()
        descriptor = manager.create(sample_columns(), refs=5)
        manager.close_all()
        assert not segment_exists(descriptor.segment)
        assert manager.live_segments() == ()


class TestReservedSegments:
    """A worker creates under a name the owner reserved; the owner adopts."""

    def test_adopted_segment_is_refcounted_by_its_owner(self):
        owner, worker = SegmentManager(), SegmentManager()
        name = owner.reserve()
        try:
            descriptor = worker.create(sample_columns(), name=name)
            assert descriptor.segment == name and segment_exists(name)
            assert worker.live_segments() == ()  # the creator keeps nothing
            owner.adopt(descriptor, refs=2)
            attached = attach_columns(descriptor)
            assert np.array_equal(attached.arrays["grid"],
                                  sample_columns()["grid"])
            attached.close()
            owner.release(name)
            assert segment_exists(name)
            owner.release(name)
            assert not segment_exists(name)
        finally:
            owner.close_all()

    def test_only_reserved_names_are_adopted(self):
        owner, worker = SegmentManager(), SegmentManager()
        descriptor = worker.create(sample_columns())
        try:
            with pytest.raises(ConfigurationError, match="not reserved"):
                owner.adopt(descriptor, refs=1)
            name = owner.reserve()
            with pytest.raises(ConfigurationError):
                owner.adopt(worker.create(sample_columns(), name=name), refs=0)
        finally:
            worker.close_all()
            owner.close_all()

    def test_close_all_sweeps_reserved_names(self):
        # One name a dead worker filled but never handed back, one it
        # never reached: both leave nothing behind.
        owner = SegmentManager()
        filled, untouched = owner.reserve(), owner.reserve()
        assert filled != untouched
        SegmentManager().create(sample_columns(), name=filled)
        owner.close_all()
        assert not segment_exists(filled)
        assert not segment_exists(untouched)

    def test_only_the_owner_unregisters(self, monkeypatch):
        # Workers share the owner's tracker, whose registry is a set: an
        # unregister anywhere but the owner's unlink would drop the
        # owner's registration.
        owner = SegmentManager()
        name = owner.reserve()
        calls: list[tuple[str, str]] = []
        real = resource_tracker.unregister
        monkeypatch.setattr(
            resource_tracker, "unregister",
            lambda path, rtype: (calls.append((path, rtype)),
                                 real(path, rtype)),
        )
        try:
            descriptor = SegmentManager().create(sample_columns(), name=name)
            owner.adopt(descriptor, refs=1)
            attach_columns(descriptor).close()
            assert calls == []
            owner.release(name)
            assert calls == [(f"/{name}", "shared_memory")]
        finally:
            owner.close_all()


# --- engine-integration stub studies (module level: picklable) ---------------


@dataclass(frozen=True, slots=True)
class _Spec:
    trial_id: int
    variant: str
    seed: int


@dataclass(frozen=True, slots=True)
class ExportBombStudy:
    """A study whose ``export_world`` always raises: every trial must
    fall back to the pickle path, counted, with results unaffected."""

    name = "exportbomb"
    trial_fields = ("value",)

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed}

    def export_world(self, world):
        raise RuntimeError("these columns never leave the parent")

    def attach_world(self, meta, columns):
        raise AssertionError("a fallback group must never attach")

    def measure(self, spec, world):
        return Trial(spec.trial_id, spec.variant, spec.seed,
                     {"value": float(world["seed"])})

    def metrics(self, result):
        return {"value": result.values["value"]}


@dataclass(frozen=True, slots=True)
class ShmKillerStudy:
    """A well-behaved shm study whose seed-2 trial hard-kills its worker
    once (marker-gated) — the pool restart must not leak a segment."""

    marker_dir: str = ""

    name = "shmkiller"
    trial_fields = ("value",)

    def variant_names(self):
        return ("base",)

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        return {"seed": spec.seed, "values": np.full(64, float(spec.seed))}

    def export_world(self, world):
        return world["seed"], {"values": world["values"]}

    def attach_world(self, meta, columns):
        return {"seed": meta, "values": columns["values"]}

    def measure(self, spec, world):
        if spec.seed == 2:
            marker = os.path.join(self.marker_dir, "killed")
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("1")
                os._exit(1)  # simulate an OOM-killed worker, no traceback
        return Trial(spec.trial_id, spec.variant, spec.seed,
                     {"value": float(world["values"].sum())})

    def metrics(self, result):
        return {"value": result.values["value"]}


@dataclass(frozen=True, slots=True)
class BuildKillerStudy:
    """An shm study whose build raises for ``bomb_seed`` and hard-kills
    its worker once (marker-gated) for ``kill_seed``; two variants, so
    every world serves two trials."""

    marker_dir: str = ""
    kill_seed: int | None = None
    bomb_seed: int | None = None

    name = "buildkiller"
    trial_fields = ("value",)

    def variant_names(self):
        return ("a", "b")

    def resolve(self, variant, seed, trial_id):
        return _Spec(trial_id=trial_id, variant=variant, seed=seed)

    def world_key(self, spec):
        return spec.seed

    def build(self, spec):
        if spec.seed == self.bomb_seed:
            raise RuntimeError("this world never builds")
        if spec.seed == self.kill_seed:
            marker = os.path.join(self.marker_dir, "killed")
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("1")
                os._exit(1)  # an OOM-killed worker, mid-build
        return {"seed": spec.seed, "values": np.full(64, float(spec.seed))}

    def export_world(self, world):
        return world["seed"], {"values": world["values"]}

    def attach_world(self, meta, columns):
        return {"seed": meta, "values": columns["values"]}

    def measure(self, spec, world):
        return Trial(spec.trial_id, spec.variant, spec.seed,
                     {"value": float(world["values"].sum())})

    def metrics(self, result):
        return {"value": result.values["value"]}


@dataclass(frozen=True, slots=True)
class PidMegaStudy(MegaStudy):
    """The mega study, leaving one ``build-<pid>-<seed>`` file per build."""

    marker_dir: str = ""

    def build(self, spec):
        Path(self.marker_dir, f"build-{os.getpid()}-{spec.seed}").touch()
        return MegaStudy.build(self, spec)


def tiny_mega_study() -> MegaStudy:
    return MegaStudy(
        variants=(
            MegaVariant(
                name="tiny",
                world=MegaWorldConfig(size=4_000, seed=0),
                max_ixps=6,
            ),
        )
    )


class TestStudyTransport:
    def test_shm_and_pickle_transports_agree_trial_for_trial(self):
        before = shm_snapshot()
        results = {
            transport: run_study(
                tiny_mega_study(),
                StudyConfig(seeds=(0, 1), workers=1, transport=transport),
            )
            for transport in ("shm", "pickle")
        }
        assert results["shm"].transport_fallbacks == 0
        assert results["pickle"].transport_fallbacks == 0
        assert results["shm"].trials == results["pickle"].trials
        assert not (shm_snapshot() - before), "leaked shared-memory segment"

    def test_export_failure_falls_back_and_is_counted(self):
        before = shm_snapshot()
        result = run_study(
            ExportBombStudy(),
            StudyConfig(seeds=(1, 2, 3), workers=1, transport="shm"),
        )
        assert result.transport_fallbacks == 3
        assert not result.failures
        assert [t.values["value"] for t in result.trials] == [1.0, 2.0, 3.0]
        note = result.coverage_note()
        assert note is not None and "fell back" in note
        assert not (shm_snapshot() - before), "leaked shared-memory segment"

    def test_killed_worker_leaks_no_segments(self, tmp_path):
        before = shm_snapshot()
        result = run_study(
            ShmKillerStudy(marker_dir=str(tmp_path)),
            StudyConfig(seeds=(1, 2, 3), workers=2, transport="shm"),
        )
        assert result.pool_restarts == 1
        assert not result.failures
        assert sorted(t.seed for t in result.trials) == [1, 2, 3]
        assert result.transport_fallbacks == 0
        assert not (shm_snapshot() - before), "leaked shared-memory segment"


def payloads(result) -> list[dict]:
    """Every trial's payload, in trial order."""
    return [t.payload() for t in result.trials]


def assert_quiet(capfd) -> None:
    err = capfd.readouterr().err
    assert "resource_tracker" not in err, err


class TestPooledBuilds:
    """At ``workers > 1`` every world builds in a pool worker, which packs
    it into a segment the parent reserved and then adopts."""

    def test_worlds_build_in_workers_and_match_pickle(self, tmp_path, capfd):
        before = shm_snapshot()
        study = PidMegaStudy(variants=tiny_mega_study().variants,
                             marker_dir=str(tmp_path))
        pooled = run_study(
            study, StudyConfig(seeds=(0, 1), workers=2, transport="shm"),
        )
        builds = sorted(p.name for p in tmp_path.iterdir())
        assert len(builds) == 2
        assert sorted(name.rsplit("-", 1)[1] for name in builds) == ["0", "1"]
        assert all(name.split("-")[1] != str(os.getpid()) for name in builds)
        assert pooled.transport_fallbacks == 0 and not pooled.failures
        reference = run_study(
            tiny_mega_study(),
            StudyConfig(seeds=(0, 1), workers=1, transport="pickle"),
        )
        assert payloads(pooled) == payloads(reference)
        assert shm_snapshot() == before
        assert_quiet(capfd)

    def test_more_workers_than_cores_keep_every_trial(self, capfd):
        # Publish and attach items of six worlds interleave on a pool
        # wider than the machine: every trial lands once, as pickle has it.
        before = shm_snapshot()
        study = MegaStudy(variants=(
            *tiny_mega_study().variants,
            MegaVariant(name="shallow", world=MegaWorldConfig(size=4_000),
                        max_ixps=2),
        ))
        seeds = tuple(range(6))
        pooled = run_study(study, StudyConfig(
            seeds=seeds, workers=min((os.cpu_count() or 1) + 1, 8),
            transport="shm",
        ))
        assert pooled.transport_fallbacks == 0 and not pooled.failures
        assert pooled.world_builds == 6 and pooled.world_reuses == 6
        reference = run_study(study, StudyConfig(seeds=seeds, workers=1))
        assert payloads(pooled) == payloads(reference)
        assert shm_snapshot() == before
        assert_quiet(capfd)

    def test_worker_killed_mid_build_restarts_the_pool(self, tmp_path, capfd):
        before = shm_snapshot()
        result = run_study(
            BuildKillerStudy(marker_dir=str(tmp_path), kill_seed=2),
            StudyConfig(seeds=(1, 2, 3), workers=2, transport="shm"),
        )
        assert (tmp_path / "killed").exists()
        assert result.pool_restarts == 1
        assert not result.failures
        assert sorted(t.seed for t in result.trials) == [1, 1, 2, 2, 3, 3]
        assert result.transport_fallbacks == 0
        assert shm_snapshot() == before
        assert_quiet(capfd)

    def test_failed_build_fails_only_its_group(self, capfd):
        before = shm_snapshot()
        result = run_study(
            BuildKillerStudy(bomb_seed=2),
            StudyConfig(seeds=(1, 2, 3), workers=2, transport="shm"),
        )
        assert sorted((f.variant, f.seed) for f in result.failures) == [
            ("a", 2), ("b", 2),
        ]
        assert all("never builds" in f.error for f in result.failures)
        assert sorted(t.seed for t in result.trials) == [1, 1, 3, 3]
        assert result.transport_fallbacks == 0
        # Two publish items built worlds; the failed one built nothing.
        assert result.world_builds == 2 and result.world_reuses == 2
        assert shm_snapshot() == before
        assert_quiet(capfd)

    def test_budgeted_study_off_main_thread_keeps_shm(self, capfd):
        # Off the main thread a deadline needs worker processes; the
        # build runs there under it, so the world still crosses by shm.
        before = shm_snapshot()
        box: dict[str, object] = {}

        def runner():
            box["result"] = run_study(
                tiny_mega_study(),
                StudyConfig(seeds=(0, 1), workers=1, transport="shm",
                            trial_timeout_s=60.0),
            )

        thread = threading.Thread(target=runner)
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        result = box["result"]
        assert result.transport_fallbacks == 0 and not result.failures
        reference = run_study(
            tiny_mega_study(), StudyConfig(seeds=(0, 1), workers=1),
        )
        study = tiny_mega_study()
        assert payloads(result) == payloads(reference)
        assert shm_snapshot() == before
        assert_quiet(capfd)

    def test_resource_tracker_stays_silent_in_a_fresh_process(self, tmp_path):
        # The tracker is a process of its own, started by the first
        # segment a process makes, and it writes to the stderr it was
        # started with: only a fresh interpreter shows what it says,
        # including its leak report at exit.
        script = (
            "from repro.experiments.engine import StudyConfig, run_study\n"
            "from tests.test_transport import BuildKillerStudy, "
            "tiny_mega_study\n"
            "shm = dict(workers=2, transport='shm')\n"
            "r = run_study(tiny_mega_study(), "
            "StudyConfig(seeds=(0, 1, 2), **shm))\n"
            "k = run_study(BuildKillerStudy(marker_dir=%r, kill_seed=2), "
            "StudyConfig(seeds=(1, 2, 3), **shm))\n"
            "print(len(r.trials), r.transport_fallbacks, "
            "len(k.trials), k.pool_restarts)\n"
        ) % str(tmp_path)
        source = os.pathsep.join(
            filter(None, (str(ROOT / "src"), str(ROOT),
                          os.environ.get("PYTHONPATH")))
        )
        before = shm_snapshot()
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=source),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["3", "0", "6", "1"]
        assert "resource_tracker" not in done.stderr, done.stderr
        assert "Traceback" not in done.stderr, done.stderr
        assert shm_snapshot() == before
