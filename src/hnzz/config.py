"""Guard configuration for brute-force enumeration.

Subspace enumeration over GF(p) grows like p^(dim^2/4), and the
subrepresentation scans used by the Harder-Narasimhan oracle multiply
such counts across vertices.  The guards below keep those scans in the
"finishes in seconds" regime; exceeding a guard raises GuardError rather
than silently degrading.

The environment variable HNZZ_GUARD_OVERRIDE can raise the limits for
offline experiments.  It is parsed as a comma-separated list of
``key=value`` pairs with keys ``dim``, ``p``, ``total2``, ``total3`` (and
generally ``totalP`` for a prime P).  Overriding the guards is unsafe for
routine use: runtimes blow up combinatorially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass(frozen=True)
class GuardConfig:
    # largest ambient dimension subspace_enumerator will accept
    max_enum_dim: int = 6
    # largest field characteristic the enumerators will accept
    max_enum_p: int = 3
    # per-characteristic cap on the total dimension of a representation
    # handed to the subrepresentation scan
    max_total_dim: dict[int, int] = field(
        default_factory=lambda: {2: 8, 3: 6}
    )

    def total_cap(self, p: int) -> int:
        cap = self.max_total_dim.get(p)
        return cap if cap is not None else 0


def load_guard() -> GuardConfig:
    """Default guards, with optional HNZZ_GUARD_OVERRIDE adjustments.

    A malformed override raises ParseError (a ValueError), which the CLI
    maps to exit code 2.
    """
    raw = os.environ.get("HNZZ_GUARD_OVERRIDE")
    base = GuardConfig()
    if not raw:
        return base
    max_dim, max_p = base.max_enum_dim, base.max_enum_p
    totals = dict(base.max_total_dim)
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ("dim", "p") and not key.startswith("total"):
            raise ParseError(f"unknown guard override key: {key!r}")
        try:
            number = int(value)
            if key == "dim":
                max_dim = number
            elif key == "p":
                max_p = number
            else:
                totals[int(key[len("total"):])] = number
        except ValueError as exc:
            raise ParseError(f"bad guard override {item!r} in HNZZ_GUARD_OVERRIDE") from exc
    return GuardConfig(max_enum_dim=max_dim, max_enum_p=max_p, max_total_dim=totals)
