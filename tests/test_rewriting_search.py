"""Bounded breadth-first search: outcomes, witnesses, budgets.

Uses two toy state spaces: an integer line (successor/predecessor) and
the Maude-tutorial vending machine.
"""

import pytest

from repro.rewriting import (
    MAX_RETAINED_SAMPLES,
    SearchBudget,
    SearchOutcome,
    breadth_first_search,
)


def line_successors(bound):
    """States 0..bound with +1/-1 moves."""

    def successors(state):
        if state + 1 <= bound:
            yield "inc", state + 1
        if state - 1 >= 0:
            yield "dec", state - 1

    return successors


class TestOutcomes:
    def test_initial_state_can_be_goal(self):
        result = breadth_first_search(5, line_successors(10), lambda s: s == 5)
        assert result.outcome is SearchOutcome.FOUND
        assert result.path == []
        assert result.state == 5
        assert result.stats.stop_reason == "goal"

    def test_found_with_shortest_witness(self):
        result = breadth_first_search(0, line_successors(10), lambda s: s == 3)
        assert result.found
        assert result.path == ["inc", "inc", "inc"]
        assert result.stats.stop_reason == "goal"

    def test_exhausted_proves_unreachable(self):
        result = breadth_first_search(0, line_successors(5), lambda s: s == 99)
        assert result.outcome is SearchOutcome.EXHAUSTED
        assert result.proved_unreachable
        assert result.states_seen == 6  # 0..5
        assert result.stats.stop_reason == "exhausted"

    def test_state_budget_exceeded(self):
        result = breadth_first_search(
            0,
            line_successors(10_000),
            lambda s: s == 9_999,
            budget=SearchBudget(max_states=10),
        )
        assert result.outcome is SearchOutcome.BUDGET_EXCEEDED
        assert not result.proved_unreachable
        assert result.stats.stop_reason == "max_states"

    def test_depth_budget_blocks_deep_goal(self):
        result = breadth_first_search(
            0,
            line_successors(10),
            lambda s: s == 9,
            budget=SearchBudget(max_depth=3),
        )
        assert result.outcome is SearchOutcome.BUDGET_EXCEEDED
        assert result.stats.stop_reason == "max_depth"

    def test_depth_budget_still_finds_shallow_goal(self):
        result = breadth_first_search(
            0,
            line_successors(10),
            lambda s: s == 2,
            budget=SearchBudget(max_depth=3),
        )
        assert result.found

    def test_time_budget(self):
        def slow_successors(state):
            yield "step", state + 1

        result = breadth_first_search(
            0,
            slow_successors,
            lambda s: False,
            budget=SearchBudget(max_states=None, max_seconds=0.05),
        )
        assert result.outcome is SearchOutcome.BUDGET_EXCEEDED
        assert result.stats.stop_reason == "max_seconds"

    def test_visited_set_prevents_reexploration(self):
        result = breadth_first_search(0, line_successors(3), lambda s: False)
        # 4 states total; without deduplication this search never ends.
        assert result.proved_unreachable
        assert result.states_seen == 4


class TestCanonicalisation:
    def test_canonical_merges_equivalent_states(self):
        # States are (value, junk); canonical key ignores junk.
        def successors(state):
            value, junk = state
            yield "step", (value + 1, junk + 1)
            yield "loop", (value, junk + 1)

        result = breadth_first_search(
            (0, 0),
            successors,
            lambda s: s[0] == 3,
            canonical=lambda s: s[0],
        )
        assert result.found
        assert result.states_seen <= 5


class TestVendingMachine:
    """The Maude tutorial: $ buys a cake, 3 quarters buy an apple...

    State: (dollars, quarters, cakes, apples).
    """

    @staticmethod
    def successors(state):
        dollars, quarters, cakes, apples = state
        if dollars >= 1:
            yield "buy-cake", (dollars - 1, quarters, cakes + 1, apples)
        if quarters >= 3:
            yield "buy-apple", (dollars, quarters - 3, cakes, apples + 1)
        if quarters >= 4:
            yield "change", (dollars + 1, quarters - 4, cakes, apples)

    def test_can_buy_cake_with_quarters(self):
        result = breadth_first_search(
            (0, 4, 0, 0), self.successors, lambda s: s[2] >= 1
        )
        assert result.found
        assert result.path == ["change", "buy-cake"]

    def test_cannot_overspend(self):
        result = breadth_first_search(
            (0, 2, 0, 0), self.successors, lambda s: s[3] >= 1
        )
        assert result.proved_unreachable

    def test_two_purchases(self):
        result = breadth_first_search(
            (1, 3, 0, 0), self.successors, lambda s: s[2] >= 1 and s[3] >= 1
        )
        assert result.found
        assert sorted(result.path) == ["buy-apple", "buy-cake"]


class TestResultMetadata:
    def test_elapsed_nonnegative(self):
        result = breadth_first_search(0, line_successors(2), lambda s: s == 2)
        assert result.elapsed >= 0

    def test_states_explored_counts_expansions(self):
        result = breadth_first_search(0, line_successors(3), lambda s: False)
        assert result.states_explored == 4


class TestWitnessMinimality:
    """BFS guarantees shortest witnesses — the property that makes ROSA's
    attack recipes canonical (the paper's 3-step Figure 2 solution)."""

    def test_shortest_path_on_line(self):
        result = breadth_first_search(0, line_successors(100), lambda s: s == 7)
        assert len(result.path) == 7

    def test_prefers_direct_route(self):
        # Two routes to the goal: a 1-step jump and a 3-step walk.
        def successors(state):
            if state == 0:
                yield "walk", 1
                yield "jump", 9
            elif state < 9:
                yield "walk", state + 1

        result = breadth_first_search(0, successors, lambda s: s == 9)
        assert result.path == ["jump"]

    def test_figure2_witness_is_minimal(self):
        """No 2-step recipe opens the mode-000 file: chown alone leaves
        the mode, chmod alone leaves the owner."""
        from repro.rosa import Configuration, RosaQuery, check, goals, model, syscalls

        config = Configuration(
            [
                model.process(1, euid=10, ruid=11, suid=12,
                              egid=10, rgid=11, sgid=12),
                model.file_obj(3, name="/etc/passwd", owner=40, group=41,
                               perms=0o000),
                model.user(4, 10),
                syscalls.sys_open(1, 3, "r"),
                syscalls.sys_chown(1, -1, -1, 41, ["CapChown"]),
                syscalls.sys_chmod(1, -1, 0o777, ["CapFowner"]),
            ]
        )
        report = check(RosaQuery("min", config, goals.file_opened_for_read(3)))
        assert report.vulnerable
        assert len(report.witness) == 2  # chmod (CapFowner) + open suffices


class TestSampleRetention:
    """The live callback sees every sample; the result keeps a bounded,
    decimated series (endpoints always survive)."""

    def search_with_samples(self, states, **kwargs):
        live = []
        result = breadth_first_search(
            0,
            line_successors(states),
            lambda s: False,
            progress=live.append,
            progress_interval=1,
            **kwargs,
        )
        return live, result.stats.samples

    def test_retained_samples_stay_under_the_default_cap(self):
        live, retained = self.search_with_samples(2 * MAX_RETAINED_SAMPLES)
        assert len(live) == 2 * MAX_RETAINED_SAMPLES + 1
        assert len(retained) <= MAX_RETAINED_SAMPLES
        # Endpoints survive decimation: the very first reading and the
        # very last one the callback saw.
        assert retained[0] == live[0]
        assert retained[-1] == live[-1]
        # The series stays in emission order.
        explored = [s.states_explored for s in retained]
        assert explored == sorted(explored)

    def test_custom_cap(self):
        live, retained = self.search_with_samples(200, max_samples=16)
        assert len(live) == 201
        assert len(retained) <= 16
        assert retained[-1] == live[-1]

    def test_no_callback_retains_nothing(self):
        result = breadth_first_search(0, line_successors(50), lambda s: False)
        assert result.stats.samples == []


class TestDeepStateSpaceStats:
    """SearchStats accounting on a deep (depth >= 50) synthetic space."""

    def test_line_walk_depth_and_dedup(self):
        # 0..60 with +1/-1 moves: every expansion past state 0 re-offers
        # its predecessor, so dedup fires once per non-initial state.
        result = breadth_first_search(0, line_successors(60), lambda s: False)
        assert result.outcome is SearchOutcome.EXHAUSTED
        assert result.states_seen == 61
        assert result.stats.max_depth == 60
        assert result.stats.dedup_hits == 60
        assert result.stats.peak_frontier == 1

    def test_branching_walk_peak_frontier(self):
        # +1/+2 moves over 0..80: the frontier holds two depths at once
        # and the +2 shortcut halves the BFS depth of the far end.
        def successors(state):
            for step in (1, 2):
                if state + step <= 80:
                    yield f"+{step}", state + step

        result = breadth_first_search(0, successors, lambda s: False)
        assert result.outcome is SearchOutcome.EXHAUSTED
        assert result.states_seen == 81
        assert result.stats.max_depth == 40
        assert result.stats.peak_frontier >= 2
        # Every state except 1 and 80's unreachable +2 twin is offered
        # twice (via +1 and via +2): once enqueued, once deduped.
        assert result.stats.dedup_hits == 79


class TestProgressSampleDivisionSafety:
    """budget_used / states_per_second must survive degenerate budgets
    and coarse clocks without dividing by zero."""

    def frozen_clock(self):
        return lambda: 0.0

    def test_zero_elapsed_reports_zero_rate(self):
        samples = []
        breadth_first_search(
            0,
            line_successors(20),
            lambda s: False,
            progress=samples.append,
            progress_interval=1,
            clock=self.frozen_clock(),
        )
        assert samples
        assert all(s.states_per_second == 0.0 for s in samples)
        assert all(s.elapsed == 0.0 for s in samples)

    def test_zero_state_limit_reads_as_fully_consumed(self):
        samples = []
        result = breadth_first_search(
            0,
            line_successors(20),
            lambda s: False,
            budget=SearchBudget(max_states=0),
            progress=samples.append,
            progress_interval=1,
            clock=self.frozen_clock(),
        )
        assert result.outcome is SearchOutcome.BUDGET_EXCEEDED
        assert samples
        assert all(s.budget_used == 1.0 for s in samples)

    def test_zero_time_limit_reads_as_fully_consumed(self):
        samples = []
        breadth_first_search(
            0,
            line_successors(5),
            lambda s: False,
            budget=SearchBudget(max_seconds=0.0),
            progress=samples.append,
            progress_interval=1,
            clock=self.frozen_clock(),
        )
        assert samples
        assert all(s.budget_used == 1.0 for s in samples)

    def test_unlimited_budget_reads_as_zero(self):
        samples = []
        breadth_first_search(
            0,
            line_successors(5),
            lambda s: False,
            budget=SearchBudget(max_states=None),
            progress=samples.append,
            progress_interval=1,
            clock=self.frozen_clock(),
        )
        assert samples
        assert all(s.budget_used == 0.0 for s in samples)

    def test_budget_used_is_capped_at_one(self):
        samples = []
        breadth_first_search(
            0,
            line_successors(50),
            lambda s: False,
            budget=SearchBudget(max_states=3),
            progress=samples.append,
            progress_interval=1,
        )
        assert samples
        assert all(0.0 <= s.budget_used <= 1.0 for s in samples)
