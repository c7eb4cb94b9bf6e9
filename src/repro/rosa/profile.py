"""Per-rule and per-reduction-phase cost attribution for ROSA search.

:class:`ProfiledSearch` wraps the callables
:func:`repro.rewriting.breadth_first_search` takes — successor
function and goal predicate — with timed versions that
attribute every expansion's wall time to named frames under the
``rosa.search`` root:

``rule:<label>``
    Enumerating one rule's rewrites at one state.  ``attempts`` counts
    states where the rule was tried, ``applications`` the configurations
    it yielded.  The enumeration replicates
    :meth:`repro.rewriting.ObjectSystem.successors` element for element
    (same trigger index, same rule order), so the successor stream the
    search consumes is identical to the unprofiled one.
``reduction.ample``
    Partial-order ample-set computation (:meth:`RosaReducer._ample`).
    ``selected`` counts states where an ample set fired and every other
    pending message was deferred.
``hash.incremental``
    Hashing each successor, as the visited set (keyed by the
    configuration itself) will — O(1) by construction (configurations
    carry an incremental multiset hash), and the profile proves it.
``goal``
    Goal-predicate evaluations (``hits`` counts true answers).
``search.loop``
    The derived remainder: BFS bookkeeping (frontier, visited set,
    budget checks) computed as elapsed minus everything measured above,
    so the root's attribution always covers 100% of search wall time
    while the measured fraction stays honest in the counters
    (``derived`` marks the bucket as computed, not timed).

Wrapping the injectable callables — instead of forking the search loop —
is what keeps profiler-on and profiler-off verdicts bit-identical: the
search itself never changes, and parity tests in
``tests/test_rosa_profile.py`` hold it to that.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.rewriting import Configuration, ObjectSystem
from repro.telemetry.profiler import Profiler

#: The root frame every search-phase record nests under.
SEARCH_ROOT = "rosa.search"

_AMPLE = (SEARCH_ROOT, "reduction.ample")
_HASH = (SEARCH_ROOT, "hash.incremental")
_GOAL = (SEARCH_ROOT, "goal")
_LOOP = (SEARCH_ROOT, "search.loop")


class ProfiledSearch:
    """Profiled successor/goal wrappers for one search.

    Build one per :func:`repro.rosa.query.check` call, hand its bound
    methods to ``breadth_first_search``, then call :meth:`finish` with
    the search's elapsed wall time to account the root and the derived
    remainder bucket.
    """

    def __init__(
        self,
        profiler: Profiler,
        system: ObjectSystem,
        reducer,  # Optional[RosaReducer]; untyped to avoid a cycle
        goal: Callable[[Configuration], bool],
    ) -> None:
        self.profiler = profiler
        self.system = system
        self.reducer = reducer
        self.goal_fn = goal
        #: Wall seconds attributed to named frames so far; finish() turns
        #: the gap to the search's elapsed time into ``search.loop``.
        self.measured = 0.0

    def _account(self, stack: Tuple[str, ...], seconds: float) -> None:
        self.profiler.account(stack, seconds)
        self.measured += seconds

    # -- the injected callables ------------------------------------------------

    def successors(self, config: Configuration) -> List[Tuple[str, Configuration]]:
        profiler = self.profiler
        clock = profiler.clock
        reducer = self.reducer
        if reducer is not None:
            start = clock()
            ample = reducer._ample(config)
            self._account(_AMPLE, clock() - start)
            if ample is not None:
                profiler.count(_AMPLE, "selected")
                profiler.count(_AMPLE, "applications", len(ample))
                return self._hashed(ample)
        # Replicate ObjectSystem.successors (trigger index, rule order)
        # with the per-rule enumeration materialised so each timed window
        # covers exactly one rule's rewrites — a generator would charge
        # the consumer's work between yields to the rule.
        out: List[Tuple[str, Configuration]] = []
        system = self.system
        if system.indexed:
            present = config.message_names()
            pairs = system._triggers
        else:
            present = None
            pairs = tuple((rule, None) for rule in system.rules)
        for rule, trigger in pairs:
            if trigger is not None and trigger not in present:
                continue
            start = clock()
            results = list(rule.rewrites(config))
            self._account((SEARCH_ROOT, "rule:" + rule.label), clock() - start)
            profiler.count((SEARCH_ROOT, "rule:" + rule.label), "attempts")
            if results:
                profiler.count(
                    (SEARCH_ROOT, "rule:" + rule.label), "applications", len(results)
                )
                for result in results:
                    out.append((rule.label, result))
        return self._hashed(out)

    def _hashed(
        self, transitions: List[Tuple[str, Configuration]]
    ) -> List[Tuple[str, Configuration]]:
        # Time the (incremental, O(1)) hash the visited set will take of
        # every successor.
        clock = self.profiler.clock
        start = clock()
        for _, config in transitions:
            hash(config)
        self._account(_HASH, clock() - start)
        return transitions

    def goal(self, config: Configuration) -> bool:
        clock = self.profiler.clock
        start = clock()
        hit = self.goal_fn(config)
        self._account(_GOAL, clock() - start)
        if hit:
            self.profiler.count(_GOAL, "hits")
        return hit

    # -- closing the books -----------------------------------------------------

    def finish(self, elapsed: float) -> None:
        """Account the search root and the derived bookkeeping remainder.

        ``elapsed`` is the search's wall time on the profiler's clock.
        The remainder (elapsed minus all measured frames) is the BFS
        loop's own bookkeeping; accounting it under a named frame keeps
        the root 100% attributed without pretending it was timed —
        the ``derived`` counter marks it as computed.
        """
        profiler = self.profiler
        profiler.account((SEARCH_ROOT,), elapsed)
        remainder = elapsed - self.measured
        if remainder > 0.0:
            profiler.account(_LOOP, remainder)
            profiler.count(_LOOP, "derived")


def profiled_callables(
    profiler: Optional[Profiler],
    system: ObjectSystem,
    reducer,
    goal: Callable[[Configuration], bool],
) -> Optional[ProfiledSearch]:
    """A :class:`ProfiledSearch` when profiling is live, else ``None``."""
    if profiler is None or not profiler.enabled:
        return None
    return ProfiledSearch(profiler, system, reducer, goal)
