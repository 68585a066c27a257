"""Guard configuration for brute-force enumeration.

Subspace enumeration over GF(p) grows like p^(dim^2/4), and the
subrepresentation scans used by the Harder-Narasimhan oracle multiply
such counts across vertices.  The guards below keep those scans in the
"finishes in seconds" regime; exceeding a guard raises GuardError rather
than silently degrading.

Every guarded function takes a ``guard`` argument defaulting to
``DEFAULT_GUARD``; a Python caller raises the limits by passing its own
``GuardConfig``.  Raised limits are unsafe for routine use: runtimes
blow up combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


DEFAULT_GUARD = GuardConfig()
