"""IPv4 addresses, prefixes, and deterministic allocators.

The simulator hands every IXP peering LAN its own prefix and every member
interface an address inside it, exactly as a real IXP assigns addresses out
of its peering-LAN subnet.  A stale registry entry's address lies inside
the LAN prefix too, but no port on the fabric holds it: its replies come
from off the LAN over extra IP hops, which is what the paper's TTL-match
filter ends up discarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AddressError


def _check_octets(value: int) -> None:
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"IPv4 value {value:#x} out of range")


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """An IPv4 address stored as a 32-bit integer.

    The dotted-quad text is precomputed at construction: campaign code
    stringifies addresses on every materialized reply, and formatting on
    demand burned ~1 s per full campaign before the cache.
    """

    value: int
    _text: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        _check_octets(self.value)
        v = self.value
        object.__setattr__(
            self,
            "_text",
            f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}",
        )

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad text like ``"193.0.2.17"``."""
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet {octet} out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return self._text

    def offset(self, delta: int) -> "IPv4Address":
        """The address ``delta`` positions away (may raise AddressError)."""
        return IPv4Address(self.value + delta)


@dataclass(frozen=True, slots=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``193.203.0.0/22``."""

    network: IPv4Address
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length {self.length} out of range")
        if self.network.value & (self.host_mask()) != 0:
            raise AddressError(
                f"{self.network}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse CIDR text like ``"193.203.0.0/22"``."""
        try:
            addr_text, len_text = text.strip().split("/")
        except ValueError:
            raise AddressError(f"malformed prefix {text!r}") from None
        if not len_text.isdigit():
            raise AddressError(f"malformed prefix length in {text!r}")
        return cls(IPv4Address.parse(addr_text), int(len_text))

    def host_mask(self) -> int:
        """Integer mask of the host bits."""
        return (1 << (32 - self.length)) - 1

    def netmask(self) -> int:
        """Integer mask of the network bits."""
        return 0xFFFFFFFF ^ self.host_mask()

    def size(self) -> int:
        """Total number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def usable_hosts(self) -> int:
        """Assignable host addresses (network/broadcast excluded for <31)."""
        if self.length >= 31:
            return self.size()
        return self.size() - 2

    def __contains__(self, address: IPv4Address) -> bool:
        return (address.value & self.netmask()) == self.network.value

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """Iterate over the sub-prefixes of ``new_length``."""
        if new_length < self.length or new_length > 32:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length}"
            )
        step = 1 << (32 - new_length)
        for base in range(self.network.value, self.network.value + self.size(), step):
            yield IPv4Prefix(IPv4Address(base), new_length)


class SubnetAllocator:
    """Hands out consecutive subnets of a fixed size from a parent prefix."""

    def __init__(self, parent: IPv4Prefix, subnet_length: int) -> None:
        if subnet_length < parent.length:
            raise AddressError(
                f"subnet /{subnet_length} larger than parent /{parent.length}"
            )
        self._parent = parent
        self._iter = parent.subnets(subnet_length)
        self._handed_out = 0

    def allocate(self) -> IPv4Prefix:
        """Return the next free subnet, raising AddressError when exhausted."""
        try:
            subnet = next(self._iter)
        except StopIteration:
            raise AddressError(
                f"subnet pool {self._parent} exhausted after {self._handed_out}"
            ) from None
        self._handed_out += 1
        return subnet
