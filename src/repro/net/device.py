"""Routers and interfaces attached to IXP peering LANs.

A :class:`Device` models the member router that answers the detector's
pings.  The behaviours that matter to the paper's filters are all here:

* the initial TTL the OS stamps on ping replies (64 for Unix-like stacks,
  255 for most network OSes, rarely 32/128) — consumed by the TTL-match
  filter;
* an optional mid-campaign OS change that flips the initial TTL — the
  TTL-switch filter exists because of these;
* ICMP blackholing / rate limiting — the sample-size filter exists because
  of these;
* replying from a *different* interface so the reply takes extra IP hops —
  discarded by the TTL-match filter (Section 3.1, "adherence to straight
  routes").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.addr import IPv4Address

#: Typical initial-TTL values (Section 3.1 accepts exactly these two).
TTL_LINUX = 64
TTL_NETWORK_OS = 255
#: Rare initial TTLs that the TTL-match filter rejects.
TTL_RARE = (32, 128)

#: Every initial TTL a device may stamp.
VALID_TTLS = frozenset({TTL_LINUX, TTL_NETWORK_OS, *TTL_RARE})

_device_ids = itertools.count(1)


@dataclass(slots=True)
class Interface:
    """One IP interface of a device."""

    address: IPv4Address
    device: "Device"
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.device.name}:{self.address}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(slots=True)
class Device:
    """A member router with ICMP-answering behaviour.

    Parameters
    ----------
    name:
        Human-readable identifier (usually derived from the owning network).
    ttl_init:
        Initial TTL stamped on replies at campaign start.
    ttl_after_change:
        Initial TTL after ``os_change_time``; ``None`` means no OS change.
    os_change_time:
        Simulated time (seconds from campaign epoch) at which the device's
        software is replaced, flipping the initial TTL.
    respond_probability:
        Per-probe probability of answering at all.  1.0 is a healthy router;
        0.0 blackholes ICMP entirely.
    processing_ms:
        Mean slow-path processing time added to every reply, round trip.
    reply_extra_hops:
        Number of additional IP hops the *reply* traverses.  0 means the
        reply stays inside the layer-2 subnet; >0 models devices that answer
        from another interface or registry addresses that actually sit
        behind a router.
    """

    name: str
    ttl_init: int = TTL_NETWORK_OS
    ttl_after_change: int | None = None
    os_change_time: float | None = None
    respond_probability: float = 1.0
    processing_ms: float = 0.1
    reply_extra_hops: int = 0
    interfaces: list[Interface] = field(default_factory=list)
    device_id: int = field(default_factory=lambda: next(_device_ids))

    def __post_init__(self) -> None:
        if self.ttl_init not in VALID_TTLS:
            raise ConfigurationError(f"unrealistic initial TTL {self.ttl_init}")
        if self.ttl_after_change is not None:
            if self.ttl_after_change not in VALID_TTLS:
                raise ConfigurationError(
                    f"unrealistic post-change TTL {self.ttl_after_change}"
                )
            if self.os_change_time is None:
                raise ConfigurationError(
                    "ttl_after_change given without os_change_time"
                )
        if not 0.0 <= self.respond_probability <= 1.0:
            raise ConfigurationError("respond_probability must be in [0, 1]")
        if self.processing_ms < 0:
            raise ConfigurationError("processing_ms cannot be negative")
        if self.reply_extra_hops < 0:
            raise ConfigurationError("reply_extra_hops cannot be negative")

    def add_interface(self, address: IPv4Address, name: str = "") -> Interface:
        """Attach a new interface with ``address`` and return it."""
        iface = Interface(address=address, device=self, name=name)
        self.interfaces.append(iface)
        return iface

    def ttl_init_at(self, time_s: float) -> int:
        """Initial TTL the device stamps on a reply sent at ``time_s``."""
        changed = (
            self.ttl_after_change is not None
            and self.os_change_time is not None
            and time_s >= self.os_change_time
        )
        if changed:
            assert self.ttl_after_change is not None
            return self.ttl_after_change
        return self.ttl_init

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name
