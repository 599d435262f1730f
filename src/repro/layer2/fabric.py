"""Constants of the switched peering LAN of an IXP."""

#: RTT of one crossing of the IXP switch (both directions).
SWITCH_CROSSING_MS = 0.02
