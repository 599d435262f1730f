"""Initial TTLs of the member routers that answer the detector's pings.

The initial TTL an OS stamps on ping replies is 64 for Unix-like stacks,
255 for most network OSes and rarely 32 or 128.  The TTL-match filter
accepts exactly the first two (Section 3.1); a mid-campaign OS change
that flips between them is what the TTL-switch filter exists for, and a
reply that crosses extra IP hops arrives decremented.
"""

#: Typical initial-TTL values (Section 3.1 accepts exactly these two).
TTL_LINUX = 64
TTL_NETWORK_OS = 255
#: Rare initial TTLs that the TTL-match filter rejects.
TTL_RARE = (32, 128)

#: Every initial TTL a device may stamp.
VALID_TTLS = frozenset({TTL_LINUX, TTL_NETWORK_OS, *TTL_RARE})
