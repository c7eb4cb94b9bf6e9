"""Partial-order state-space reduction for bounded search.

:class:`Footprint` declares, per transition kind, the resource tokens it
reads and writes; two kinds are :meth:`independent
<Footprint.independent>` when neither writes a token the other touches.
A domain layer (see :mod:`repro.rosa.independence`) uses this relation
to pick *ample* successor sets: when one pending message commutes with
every other pending message and cannot affect the goal, only its
transitions need exploring from that state.

The visited set keys states by the configuration itself (configurations
hash incrementally, see :mod:`repro.rewriting.objects`); no renaming or
canonical relabelling of identifiers takes place.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet


@dataclasses.dataclass
class ReductionStats:
    """Counters a reduction layer accumulates across one search."""

    #: Always 0: kept so readers of the old symmetry counter still work.
    symmetry_hits: int = 0
    #: Pending messages deferred at states where an ample subset was
    #: selected (each deferred message's interleavings are pruned).
    por_pruned: int = 0
    #: States where partial-order reduction selected an ample subset.
    ample_states: int = 0


@dataclasses.dataclass(frozen=True)
class Footprint:
    """The resource tokens one transition kind reads and writes.

    Tokens are opaque hashable labels (strings in practice) naming the
    state the transition's *enabledness and effect* depend on.  The
    declared footprint must over-approximate the real one — a missing
    token makes partial-order reduction unsound, a spurious token only
    costs reduction.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def independent(self, other: "Footprint") -> bool:
        """True when the two kinds commute: neither writes what the other touches."""
        if self.writes & other.writes:
            return False
        if self.writes & other.reads:
            return False
        if self.reads & other.writes:
            return False
        return True


def footprint(reads=(), writes=()) -> Footprint:
    return Footprint(reads=frozenset(reads), writes=frozenset(writes))
