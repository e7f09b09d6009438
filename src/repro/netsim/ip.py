"""IP address model for the simulated internet.

Addresses are plain value objects; :class:`IpPool` hands out
deterministic, non-colliding addresses so population generators can
assign "infrastructure" (a provider's shared MX farm) and "edge"
(a hobbyist's single VPS) addresses that the classification heuristics
in :mod:`repro.measurement.classify` can reason about.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True, slots=True)
class IpAddress:
    """An IPv4 or IPv6 address, stored in canonical text form."""

    text: str
    family: int = 4

    @classmethod
    def v4(cls, a: int, b: int, c: int, d: int) -> "IpAddress":
        for octet in (a, b, c, d):
            if not 0 <= octet <= 255:
                raise ValueError(f"octet out of range: {octet}")
        return cls(f"{a}.{b}.{c}.{d}", 4)

    @classmethod
    def v6(cls, suffix: int) -> "IpAddress":
        if not 0 <= suffix <= 0xFFFF_FFFF:
            raise ValueError("v6 suffix out of range")
        return cls(f"2001:db8::{suffix:x}", 6)

    @classmethod
    def parse(cls, text: str) -> "IpAddress":
        family = 6 if ":" in text else 4
        if family == 4:
            parts = text.split(".")
            if len(parts) != 4 or not all(
                    p.isdigit() and 0 <= int(p) <= 255 for p in parts):
                raise ValueError(f"invalid IPv4 address: {text!r}")
        return cls(text, family)

    def __str__(self) -> str:
        return self.text


class IpPool:
    """Deterministic allocator of unique IPv4 addresses.

    Allocations walk 10.0.0.0/8 sequentially; separate pools (one per
    provider, one for self-hosters) are created with distinct bases so
    address proximity carries meaning in the simulation.
    """

    def __init__(self, base_second_octet: int = 0):
        if not 0 <= base_second_octet <= 255:
            raise ValueError("base octet out of range")
        self._base = base_second_octet
        self._next = 0
        self._limit = 256 * 256 * 254

    def allocate(self) -> IpAddress:
        if self._next >= self._limit:
            raise RuntimeError("IP pool exhausted")
        index = self._next
        self._next += 1
        c, d = divmod(index, 254)
        b_extra, c = divmod(c, 256)
        return IpAddress.v4(10, (self._base + b_extra) % 256, c, d + 1)
