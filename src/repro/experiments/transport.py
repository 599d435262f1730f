"""Zero-copy world transport over POSIX shared memory.

At mega scale (10⁵–10⁶-network worlds) the dominant cost of a study is
no longer computing trials but *moving the world*: pickling a built
world into every ``ProcessPoolExecutor`` worker copies hundreds of
megabytes per dispatch.  This module moves the arrays exactly once:

1. the study parent reserves a segment name (:meth:`SegmentManager.
   reserve`) and sends it with the world-key group's build item;
2. whichever process runs that item builds the world, asks it for its
   array columns (``export_columns``) and packs them into one
   :class:`multiprocessing.shared_memory.SharedMemory` segment under the
   reserved name (:meth:`SegmentManager.create` with ``name``); only the
   tiny :class:`SegmentDescriptor` (segment name + per-column
   dtype/shape/offset) travels back;
3. the parent adopts the segment (:meth:`SegmentManager.adopt`, one
   reference per trial of the group) and stays its only owner;
4. each trial item carries the descriptor through the normal pickle
   channel; its worker attaches and rebuilds numpy views directly over
   the shared pages — no copy, no deserialization proportional to world
   size;
5. the parent releases one reference per finished trial and unlinks the
   segment at zero.  :meth:`SegmentManager.close_all` is the
   belt-and-braces sweep the study engine runs on *every* exit path
   (success, quarantine, pool restart, cancellation, KeyboardInterrupt):
   it unlinks every adopted segment and every reserved name a dead
   worker may have half-created, so a killed run never leaks segments.

Raw ``SharedMemory`` construction anywhere else in the tree is a lint
error (``pool-raw-shm`` in :mod:`repro.devtools.lint.poolpurity`):
segments that bypass the refcounted lifecycle are exactly the ones that
survive crashes as orphans in ``/dev/shm``.

Who unregisters a segment from :mod:`multiprocessing.resource_tracker`:
only the owner, as it unlinks the segment.  A :class:`SegmentManager`
starts the tracker when it is made — before any pool forks — so every
process of the run talks to that one tracker, whose registry is a set.
Creating or attaching a segment in a worker registers the name again,
which changes nothing, and a worker never unregisters: that would drop
the one registration, and a crashed owner's segments would then outlive
it.  A worker with a tracker of its own would instead unlink its
segments when it exits, with a leak warning on stderr.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import _posixshmem
import numpy as np

from repro.errors import ConfigurationError

#: Column starts are aligned so every dtype's natural alignment holds.
_ALIGN = 64


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Layout of one array inside a segment (enough to rebuild a view)."""

    name: str
    dtype: str   # numpy dtype string, e.g. "<i8"
    shape: tuple[int, ...]
    offset: int  # byte offset of the column inside the segment


@dataclass(frozen=True, slots=True)
class SegmentDescriptor:
    """Everything a worker needs to attach: tiny, picklable, arrays-free."""

    segment: str
    columns: tuple[ColumnSpec, ...]
    nbytes: int


class AttachedColumns:
    """A worker-side attachment: named views plus the mapping they pin."""

    def __init__(
        self,
        descriptor: SegmentDescriptor,
        shm: shared_memory.SharedMemory,
    ) -> None:
        self.descriptor = descriptor
        self._shm = shm
        self.arrays: dict[str, np.ndarray] = {}
        for spec in descriptor.columns:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            view.flags.writeable = False
            self.arrays[spec.name] = view

    def close(self) -> None:
        """Drop the views and unmap.

        Numpy views exported from the buffer keep the mmap pinned; if a
        measured result (or the world object) still holds one, closing
        would raise ``BufferError`` — treat that as "the OS unmaps at
        process exit" rather than an error, since workers never own the
        segment.
        """
        self.arrays.clear()
        try:
            self._shm.close()
        except BufferError:  # views still alive; freed at process exit
            pass


def _layout(
    columns: dict[str, np.ndarray],
) -> tuple[tuple[ColumnSpec, ...], int]:
    """Aligned packing order of ``columns`` and the total byte size."""
    specs: list[ColumnSpec] = []
    offset = 0
    for name, array in columns.items():
        if array.dtype.hasobject:
            raise ConfigurationError(
                f"column {name!r} holds Python objects; only plain "
                "numeric arrays can cross the shared-memory transport"
            )
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(
            ColumnSpec(
                name=name,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
            )
        )
        offset += array.nbytes
    return tuple(specs), max(offset, 1)


class SegmentManager:
    """Parent-side owner of every world segment of one study run.

    ``create`` packs columns into a fresh segment with an initial
    reference count; ``reserve`` hands out a name for another process to
    ``create`` under, and ``adopt`` takes that segment over;
    ``release`` drops one outstanding trial; the segment is unlinked
    when the count reaches zero.  ``close_all`` force-releases
    everything, reserved names included — the study engine calls it in a
    ``finally`` so quarantined groups, pool restarts and hard kills of
    the run all converge on the same cleanup path.  The manager maps no
    segment itself: it holds names and counts.
    """

    def __init__(self) -> None:
        self._refs: dict[str, int] = {}
        self._reserved: set[str] = set()
        # Before any pool forks: every process of the run shares this
        # tracker (see the module docstring).
        resource_tracker.ensure_running()

    def create(
        self,
        columns: dict[str, np.ndarray],
        refs: int = 1,
        name: str | None = None,
    ) -> SegmentDescriptor:
        """Pack ``columns`` into a new segment holding ``refs`` references.

        With ``name`` — reserved by the owning manager, usually in another
        process — the segment is created under that name for the owner to
        :meth:`adopt`, and this manager keeps no record of it (``refs`` is
        then the owner's to give).
        """
        if refs < 1:
            raise ConfigurationError("a new segment needs >= 1 reference")
        specs, nbytes = _layout(columns)
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        if name is None:
            self._refs[shm.name] = refs
        try:
            for spec in specs:
                np.ndarray(
                    spec.shape,
                    dtype=np.dtype(spec.dtype),
                    buffer=shm.buf,
                    offset=spec.offset,
                )[...] = columns[spec.name]
        finally:
            shm.close()
        return SegmentDescriptor(
            segment=shm.name, columns=specs, nbytes=nbytes
        )

    def reserve(self) -> str:
        """A fresh segment name for another process to :meth:`create` under.

        Until :meth:`adopt` takes the segment over, :meth:`close_all`
        unlinks the name in whatever state its creator left it.
        """
        name = f"repro_{os.getpid()}_{secrets.token_hex(6)}"
        self._reserved.add(name)
        return name

    def adopt(self, descriptor: SegmentDescriptor, refs: int) -> None:
        """Own the segment created under a reserved name, with ``refs``
        references."""
        if descriptor.segment not in self._reserved:
            raise ConfigurationError(
                f"segment {descriptor.segment!r} was not reserved here"
            )
        if refs < 1:
            raise ConfigurationError("an adopted segment needs >= 1 reference")
        self._reserved.discard(descriptor.segment)
        self._refs[descriptor.segment] = refs

    def release(self, segment: str) -> None:
        """Drop one reference; unlink the segment at zero.

        Releasing an already-destroyed segment is a no-op: the engine
        releases per completed future, and ``close_all`` may already
        have swept the table on an error path.
        """
        if segment not in self._refs:
            return
        self._refs[segment] -= 1
        if self._refs[segment] <= 0:
            del self._refs[segment]
            _unlink(segment)

    def live_segments(self) -> tuple[str, ...]:
        """Names of segments not yet unlinked (test/diagnostic hook)."""
        return tuple(sorted(self._refs))

    def close_all(self) -> None:
        """Unlink every owned segment regardless of reference count, and
        every reserved name not yet adopted."""
        for name in sorted(self._refs) + sorted(self._reserved):
            _unlink(name)
        self._refs.clear()
        self._reserved.clear()


def _unlink(name: str) -> None:
    """Unlink segment ``name`` if it exists, and drop its registration.

    The creator may have died before registering the name with the
    tracker, or after: registering it again first makes the unregister
    valid either way.
    """
    path = f"/{name}"
    try:
        _posixshmem.shm_unlink(path)
    except FileNotFoundError:  # never created, or already gone
        return
    resource_tracker.register(path, "shared_memory")
    resource_tracker.unregister(path, "shared_memory")


def attach_columns(descriptor: SegmentDescriptor) -> AttachedColumns:
    """Attach to a parent-owned segment and rebuild the column views.

    Attaching registers the name with the run's one resource tracker,
    where it is registered already; the registration stays the owner's
    to drop (see the module docstring).
    """
    return AttachedColumns(
        descriptor, shared_memory.SharedMemory(name=descriptor.segment)
    )


def segment_exists(name: str) -> bool:
    """Whether the named segment is still linked (test/diagnostic hook)."""
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")
