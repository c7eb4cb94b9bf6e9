"""Independence declarations for ROSA syscall messages.

This module is the domain knowledge behind
:mod:`repro.rewriting.reduction` for the UNIX rule module:

* **Resource tokens** — every syscall message kind declares the coarse
  attribute-level tokens its rule reads (for enabledness and effect)
  and writes (:data:`MESSAGE_FOOTPRINTS`).  Two pending messages are
  independent when neither writes a token the other touches — they then
  commute: executing them in either order reaches the same state, and
  neither can enable or disable the other.

* **Goal footprints** — :class:`GoalFootprint` records which tokens a
  goal predicate reads, so partial-order reduction never defers a
  message that could flip it.  Goals without a footprint disable
  reduction for their query.

:func:`build_reducer` assembles these into a :class:`RosaReducer`, the
object :func:`repro.rosa.query.check` installs between the search and
the rule system.  Reduction preserves reachability verdicts: ample sets
satisfy the classic conditions (the message commutes with every other
pending message, is invisible to the goal, and the state space is
acyclic because every rule consumes one message and none create any).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.rewriting import Configuration, MessageRule, Msg, ObjectSystem, SearchBudget
from repro.rewriting.reduction import Footprint, ReductionStats, footprint
from repro.rosa import model

# Resource tokens (see the per-rule derivations below).  Coarse on
# purpose: a token covers one attribute family across *all* objects, so
# declared footprints safely over-approximate per-object ones.
PROC_STATE = "proc.state"
PROC_UIDS = "proc.uids"
PROC_GIDS = "proc.gids"
PROC_FDS = "proc.fds"
FILE_PERMS = "file.perms"
FILE_OWNER = "file.owner"  # owner and group bits together
DIRS = "dirs"  # directory-entry existence and attributes
POP_FILE = "pop.file"  # the File object population
POP_SOCK = "pop.sock"  # the Socket object population
SOCK_PORT = "sock.port"
OID_MAX = "oid.max"  # the fresh-oid counter (read+written by creators)

#: Read/write footprints of each syscall rule, derived from
#: :mod:`repro.rosa.rules`.  Every rule reads ``proc.state`` (the
#: dead-process check).  Reads include everything enabledness depends
#: on — permission inputs, wildcard candidate populations, skip-guard
#: comparisons — because partial-order reduction needs "m2 cannot
#: enable, disable, or alter m" exactly as much as effect disjointness.
MESSAGE_FOOTPRINTS: Dict[str, Footprint] = {
    "open": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_PERMS, FILE_OWNER, DIRS, POP_FILE},
        writes={PROC_FDS},
    ),
    "setuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "seteuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "setresuid": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_UIDS}),
    "setgid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setegid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setresgid": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "setgroups": footprint(reads={PROC_STATE, PROC_GIDS}, writes={PROC_GIDS}),
    "kill": footprint(reads={PROC_STATE, PROC_UIDS}, writes={PROC_STATE}),
    "chmod": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, FILE_PERMS, DIRS, POP_FILE},
        writes={FILE_PERMS},
    ),
    "fchmod": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_FDS, FILE_OWNER, FILE_PERMS, POP_FILE},
        writes={FILE_PERMS},
    ),
    "chown": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, DIRS, POP_FILE},
        writes={FILE_OWNER},
    ),
    "fchown": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, FILE_OWNER, PROC_FDS, POP_FILE},
        writes={FILE_OWNER},
    ),
    "unlink": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, POP_FILE, FILE_OWNER, FILE_PERMS},
        writes={DIRS, OID_MAX},
    ),
    "creat": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, OID_MAX},
        writes={POP_FILE, DIRS, OID_MAX},
    ),
    "link": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, POP_FILE, DIRS, OID_MAX},
        writes={DIRS, OID_MAX},
    ),
    "rename": footprint(
        reads={PROC_STATE, PROC_UIDS, PROC_GIDS, DIRS, POP_FILE, FILE_OWNER, FILE_PERMS},
        writes={DIRS},
    ),
    "socket": footprint(reads={PROC_STATE, OID_MAX}, writes={POP_SOCK, OID_MAX}),
    "bind": footprint(reads={PROC_STATE, POP_SOCK, SOCK_PORT}, writes={SOCK_PORT}),
    "connect": footprint(reads={PROC_STATE, POP_SOCK}, writes=frozenset()),
}


@dataclasses.dataclass(frozen=True)
class GoalFootprint:
    """What a goal predicate depends on.

    ``reads`` are the resource tokens the predicate inspects — a message
    whose writes intersect them is *visible* and can never be deferred
    by partial-order reduction.
    """

    reads: FrozenSet[str]

    def union(self, other: "GoalFootprint") -> "GoalFootprint":
        return GoalFootprint(reads=self.reads | other.reads)


def combined_footprint(goals: Iterable) -> Optional[GoalFootprint]:
    """The union footprint of several goals; None if any goal lacks one."""
    merged: Optional[GoalFootprint] = None
    for goal in goals:
        fp = getattr(goal, "footprint", None)
        if not isinstance(fp, GoalFootprint):
            return None
        merged = fp if merged is None else merged.union(fp)
    return merged


#: Below this estimated raw state-space size, reduction costs more than
#: it can possibly save: the reducer's setup (inert classification) plus
#: the per-state ample-set probe overwhelm a search that finishes in a
#: few dozen states either way.  The query engine downgrades such searches
#: to the raw space (see :meth:`repro.rosa.engine.QueryEngine.check`);
#: direct :func:`repro.rosa.query.check` calls are never downgraded —
#: baselines, differential oracles and reduction tests rely on the flag
#: meaning exactly what it says.
REDUCTION_MIN_SPACE = 256


def estimated_space(initial: Configuration, cap: int = 1 << 20) -> int:
    """A cheap upper bound on the reachable state-space size.

    Every UNIX rule consumes one pending message and creates none, so
    each reachable state is the initial objects rewritten by some
    sub-multiset of the initial messages: the space is bounded by
    ``prod(count + 1)`` over the pending message multiset.  The product
    is clamped at ``cap`` — callers only compare it against small
    thresholds, and unclamped it grows combinatorially.
    """
    bound = 1
    for element, count in initial._counts.items():
        if isinstance(element, Msg):
            bound *= count + 1
            if bound >= cap:
                return cap
    return bound


#: Messages that write the uid triple family (``proc.uids``); no other
#: message kind can change any process's uids.
_UID_FAMILY = frozenset({"setuid", "seteuid", "setresuid"})
#: Messages that write the gid family (``proc.gids``); the only writers.
_GID_FAMILY = frozenset({"setgid", "setegid", "setresgid", "setgroups"})


class RosaReducer:
    """Ample-set successor filtering (partial-order reduction).

    Built per query by :func:`build_reducer`; :meth:`successors`
    replaces the rule system's successor function.  ``stats``
    accumulates the reduction counters the report and telemetry surface.
    """

    def __init__(
        self,
        system: ObjectSystem,
        goal_footprint: GoalFootprint,
        initial: Configuration,
    ) -> None:
        self.system = system
        self.goal_reads = goal_footprint.reads
        self.stats = ReductionStats()
        #: Rules by the message name they consume, in rule order.
        self._rules_by_name: Dict[str, List[MessageRule]] = {}
        for rule in system.rules:
            if isinstance(rule, MessageRule) and rule.message_name:
                self._rules_by_name.setdefault(rule.message_name, []).append(rule)
        #: Cached deterministic sort keys for pending-message ordering.
        self._sort_keys: Dict[Msg, str] = {}
        #: Pending message -> forever-inert verdict (see
        #: :meth:`_classify_inert`).  Messages never spawn during search,
        #: so the initial pending set covers every reachable state.
        self._inert: Dict[Msg, bool] = self._classify_inert(initial)

    # -- partial order ----------------------------------------------------------

    def successors(self, config: Configuration) -> Iterator[Tuple[str, Configuration]]:
        ample = self._ample(config)
        if ample is not None:
            return iter(ample)
        return self.system.successors(config)

    def _classify_inert(self, initial: Configuration) -> Dict[Msg, bool]:
        """Which pending messages are *forever inert*: pure consumes always.

        A message is forever inert when, at every reachable state, each
        of its transitions is a pure consume — the result is exactly the
        state minus one occurrence of the message.  Such a message
        commutes with everything (consuming it first reaches ``s ∖ {m}``
        with every object untouched, and no rule reads the message
        multiset of other kinds), is invisible to goals (goals read only
        objects), and the space is acyclic (every rule consumes a
        message), so its transitions form a sound ample set.

        Classification is per message value, from the initial state:

        * ``connect`` and non-SIGKILL ``kill`` are pure consumes by rule
          construction, at any state;
        * the uid family is inert when *every* pending uid-family
          message yields only pure consumes at the initial state.  Those
          messages are the only writers of any process's uid triple and
          their enabledness reads only uids plus the capability set
          frozen inside the message args — so if none of them can move a
          uid at the start, no reachable state ever differs in uids and
          the initial classification holds everywhere;
        * the gid family is frozen analogously (sole writers of gid
          triples and supplementary groups, enabledness on gids + frozen
          caps).

        Messages with zero transitions at the initial state classify as
        pure vacuously — under a frozen family they stay disabled
        forever, so they neither write nor ever lead an ample set (ample
        selection requires an enabled transition).
        """
        pending = list(initial.messages())
        purity: Dict[Msg, bool] = {
            msg: self._pure_transitions(initial, msg) is not None
            for msg in pending
        }
        uid_frozen = all(
            purity[msg] for msg in pending if msg.name in _UID_FAMILY
        )
        gid_frozen = all(
            purity[msg] for msg in pending if msg.name in _GID_FAMILY
        )
        inert: Dict[Msg, bool] = {}
        for msg in pending:
            if msg.name == "connect":
                inert[msg] = True
            elif msg.name == "kill" and msg.args[2] != model.SIGKILL:
                inert[msg] = True
            elif msg.name in _UID_FAMILY:
                inert[msg] = uid_frozen
            elif msg.name in _GID_FAMILY:
                inert[msg] = gid_frozen
            else:
                inert[msg] = False
        return inert

    def _pure_transitions(
        self, config: Configuration, msg: Msg
    ) -> Optional[List[Tuple[str, Configuration]]]:
        """``msg``'s transitions at ``config`` if all are pure consumes.

        Returns None as soon as one transition is anything but
        ``config`` minus one occurrence of ``msg``; an empty list means
        the message is disabled here.
        """
        transitions: List[Tuple[str, Configuration]] = []
        expected = None
        for rule in self._rules_by_name.get(msg.name, ()):
            for result in rule.rewrites_for_message(config, msg):
                if expected is None:
                    expected = config.consume(msg)
                if result != expected:
                    return None
                transitions.append((rule.label, result))
        return transitions

    def _sort_key(self, msg: Msg) -> str:
        key = self._sort_keys.get(msg)
        if key is None:
            key = repr(msg.key)
            self._sort_keys[msg] = key
        return key

    def _ample(self, config: Configuration) -> Optional[List[Tuple[str, Configuration]]]:
        pending = sorted(config.messages(), key=self._sort_key)
        if len(pending) < 2:
            return None
        inert = self._inert
        for msg in pending:
            if not inert.get(msg, False):
                continue
            # Forever-inert message: its transitions are the ample set.
            # Defense in depth — verify the pure-consume invariant holds
            # at *this* state before relying on it; fall through to the
            # footprint path on any mismatch (costs reduction, never
            # soundness).
            transitions = self._pure_transitions(config, msg)
            if transitions:
                self.stats.ample_states += 1
                self.stats.por_pruned += len(pending) - 1
                return transitions
        for msg in pending:
            fp = MESSAGE_FOOTPRINTS.get(msg.name)
            if fp is None:
                continue
            # Visible messages (their writes reach what the goal reads)
            # can flip the goal and must never be deferred — nor lead an
            # ample set, since deferral happens to everything else.
            if fp.writes & self.goal_reads:
                continue
            compatible = True
            for other in pending:
                if other is msg:
                    # Further occurrences of the same message (repeat >= 2)
                    # need no self-independence: a persistent set only has
                    # to commute with *non-ample* actions, and consuming
                    # another instance of this very message IS the ample
                    # action — any path that executes it has already taken
                    # an ample transition.
                    continue
                other_fp = MESSAGE_FOOTPRINTS.get(other.name)
                if other_fp is None or not fp.independent(other_fp):
                    compatible = False
                    break
            if not compatible:
                continue
            transitions: List[Tuple[str, Configuration]] = []
            for rule in self._rules_by_name.get(msg.name, ()):
                for result in rule.rewrites_for_message(config, msg):
                    transitions.append((rule.label, result))
            if transitions:
                self.stats.ample_states += 1
                self.stats.por_pruned += len(pending) - 1
                return transitions
        return None


def build_reducer(
    initial: Configuration,
    goal,
    system: ObjectSystem,
    budget: SearchBudget,
) -> Optional[RosaReducer]:
    """A reducer for this query, or None when reduction cannot apply.

    Reduction is declined (returning None, the caller falls back to the
    unreduced search) when:

    * the goal carries no :class:`GoalFootprint` — visibility would be
      a guess;
    * the rule system is not the stock UNIX module (the footprints here
      describe exactly those rules);
    * the initial configuration holds a message without a declared
      footprint;
    * ``budget.max_depth`` is set — a partial-order-reduced witness can
      be *longer* than the shortest one (deferred messages commute to
      after the ample message), so depth-bounded verdicts could differ.
    """
    goal_fp = getattr(goal, "footprint", None)
    if not isinstance(goal_fp, GoalFootprint):
        return None
    if budget.max_depth is not None:
        return None
    if system.signature != _unix_signature():
        return None
    for name in initial.message_names():
        if name not in MESSAGE_FOOTPRINTS:
            return None
    return RosaReducer(system, goal_fp, initial)


_UNIX_SIGNATURE = None


def _unix_signature():
    global _UNIX_SIGNATURE
    if _UNIX_SIGNATURE is None:
        from repro.rosa.rules import unix_rules

        _UNIX_SIGNATURE = ObjectSystem("UNIX", unix_rules()).signature
    return _UNIX_SIGNATURE
