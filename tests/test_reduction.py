"""State-space reduction: partial-order reduction and hash upkeep.

Covers the layers separately and together:

* :class:`repro.rewriting.reduction.Footprint` independence algebra;
* :class:`repro.rosa.independence.RosaReducer` on real configurations
  (ample-set selection, the build gates);
* verdict/witness/exposure parity between reduced and unreduced
  searches — the soundness contract of the whole subsystem;
* the incremental multiset hash that makes raw-state dedup O(1).
"""

import pytest

from repro.core.pipeline import PrivAnalyzer
from repro.core.report import analysis_to_dict
from repro.programs import PROGRAM_MODULES, spec_by_name
from repro.rewriting import Configuration, SearchBudget
from repro.rewriting.objects import Msg, _mix
from repro.rewriting.reduction import Footprint, footprint
from repro.rosa import RosaQuery, Verdict, check, goals, model, syscalls
from repro.rosa import engine as engine_module
from repro.rosa.engine import CachedOutcome, query_cache_key
from repro.rosa.independence import build_reducer
from repro.rosa.query import DEFAULT_BUDGET, unix_system
from repro.rosa.syscalls import WILDCARD

BUDGET = SearchBudget(max_states=50_000, max_seconds=30.0)


class TestFootprint:
    def test_disjoint_footprints_are_independent(self):
        a = footprint(reads={"x"}, writes={"y"})
        b = footprint(reads={"z"}, writes={"w"})
        assert a.independent(b) and b.independent(a)

    @pytest.mark.parametrize(
        "a, b",
        [
            (footprint(writes={"t"}), footprint(writes={"t"})),
            (footprint(writes={"t"}), footprint(reads={"t"})),
            (footprint(reads={"t"}), footprint(writes={"t"})),
        ],
    )
    def test_any_write_overlap_is_dependent(self, a: Footprint, b: Footprint):
        assert not a.independent(b)


# -- RosaReducer: build gates ------------------------------------------------


def symmetric_setuid_config(repeat=2):
    """A process that may become any of three interchangeable users."""
    elements = [
        model.process_for_user(1, 10, 10),
        model.user(4, 10),
        model.user(5, 20),
        model.user(6, 30),
    ]
    elements += [syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"])] * repeat
    return Configuration(elements)


def symmetric_query(repeat=2):
    return RosaQuery(
        "symmetric-setuid",
        symmetric_setuid_config(repeat),
        goals.process_terminated(1),
    )


class TestBuildReducer:
    def test_reducer_declines_without_goal_footprint(self):
        bare_goal = lambda config: False  # noqa: E731 — no .footprint
        reducer = build_reducer(
            symmetric_setuid_config(), bare_goal, unix_system(), BUDGET
        )
        assert reducer is None

    def test_depth_bound_declines_reduction(self):
        # A POR witness can be longer than the shortest one, so a depth
        # bound switches reduction off entirely.
        query = symmetric_query()
        reducer = build_reducer(
            query.initial,
            query.goal,
            unix_system(),
            SearchBudget(max_states=1000, max_depth=5),
        )
        assert reducer is None

    def test_isomorphic_states_stay_distinct(self):
        # Three interchangeable target users: the visited set keys states
        # by the configuration itself, so renamed states never merge.
        query = symmetric_query(repeat=1)
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert full.states_seen == reduced.states_seen == 4
        assert reduced.stats.symmetry_hits == 0


# -- RosaReducer: partial-order reduction -------------------------------------


def bind_visible_query():
    """connect (invisible, ample) pending beside bind (goal-visible)."""
    config = Configuration(
        [
            model.process_for_user(1, 10, 10),
            model.socket_obj(5, owner_pid=1, port=0),
            model.port_obj(7, 80),
            syscalls.sys_connect(1, 5, 8080),
            syscalls.sys_bind(1, 5, 80, ["CapNetBindService"]),
        ]
    )
    return RosaQuery(
        "bind-visible", config, goals.socket_bound_to_privileged_port()
    )


class TestPartialOrderReduction:
    def por_config(self):
        return Configuration(
            [
                model.process_for_user(1, 10, 10),
                model.socket_obj(5, owner_pid=1, port=0),
                model.user(4, 10),
                syscalls.sys_connect(1, 5, 8080),
                syscalls.sys_setuid(1, 10),
            ]
        )

    def test_invisible_independent_message_leads_ample_set(self):
        # connect writes nothing and is independent of setuid; the goal
        # reads only socket state, which neither message can reach first.
        config = self.por_config()
        goal = goals.socket_bound_to_privileged_port()
        reducer = build_reducer(config, goal, unix_system(), BUDGET)
        assert reducer is not None
        ample = list(reducer.successors(config))
        full = list(unix_system().successors(config))
        labels = {label for label, _ in ample}
        assert labels == {"connect"}
        assert len(ample) < len(full)
        assert reducer.stats.por_pruned == 1
        assert reducer.stats.ample_states == 1

    def test_single_pending_message_is_never_ample(self):
        config = Configuration(
            [
                model.process_for_user(1, 10, 10),
                model.socket_obj(5, owner_pid=1, port=0),
                syscalls.sys_connect(1, 5, 8080),
            ]
        )
        goal = goals.socket_bound_to_privileged_port()
        reducer = build_reducer(config, goal, unix_system(), BUDGET)
        list(reducer.successors(config))
        assert reducer.stats.por_pruned == 0

    def test_goal_visible_message_is_not_deferred(self):
        # bind writes sock.port, which the goal reads: the ample set may
        # not defer it, and connect leading the set is still fine — but a
        # set containing only bind-deferral would be unsound.  Here both
        # messages are pending; connect is ample, bind is deferred, and
        # the verdict must still match the unreduced search.
        query = bind_visible_query()
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert full.verdict is Verdict.VULNERABLE
        assert reduced.verdict is Verdict.VULNERABLE


# -- parity: the soundness contract -------------------------------------------


def figure2_query(repeat=1):
    elements = [
        model.process(1, euid=10, ruid=11, suid=12, egid=10, rgid=11, sgid=12),
        model.dir_entry(2, name="/etc", owner=40, group=41, perms=0o777, inode=3),
        model.file_obj(3, name="/etc/passwd", owner=40, group=41, perms=0o000),
        model.user(4, 10),
    ]
    messages = [
        syscalls.sys_open(1, 3, "r"),
        syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"]),
        syscalls.sys_chown(1, WILDCARD, WILDCARD, 41, ["CapChown"]),
        syscalls.sys_chmod(1, WILDCARD, 0o777),
    ]
    elements += messages * repeat
    return RosaQuery(
        "fig2", Configuration(elements), goals.file_opened_for_read(3)
    )


class TestReductionParity:
    @pytest.mark.parametrize("repeat", [1, 2])
    def test_figure2_verdict_and_witness_parity(self, repeat):
        query = figure2_query(repeat)
        full = check(query, BUDGET, reduction=False)
        reduced = check(query, BUDGET, reduction=True)
        assert reduced.verdict is full.verdict is Verdict.VULNERABLE
        assert bool(reduced.witness) == bool(full.witness)

    def test_exhaustive_reduced_never_sees_more_states(self):
        for query in (symmetric_query(1), symmetric_query(2), figure2_query()):
            full = check(query, BUDGET, reduction=False)
            reduced = check(query, BUDGET, reduction=True)
            if full.verdict is Verdict.INVULNERABLE:
                assert reduced.states_seen <= full.states_seen

    def test_pipeline_exposure_table_is_bit_identical(self):
        # The whole-tool acceptance check: reduction on vs off must
        # produce byte-equal Table III output for a real program.
        from repro.core.pipeline import PrivAnalyzer
        from repro.programs import spec_by_name

        spec = spec_by_name("passwd")
        tables = []
        for reduction in (False, True):
            analyzer = PrivAnalyzer(use_query_cache=False, reduction=reduction)
            analysis = analyzer.analyze(spec)
            tables.append(analysis.render_table())
        assert tables[0] == tables[1]


def _parity_params():
    """Every paper and exemplar program at repeat 1 and 2, but suRef r2.

    suRef r2 is left out: its raw search outlives the default budget on
    slower hosts, so its verdict depends on host speed.  suRef r1 takes
    seconds and runs with the long campaigns (``-m fuzz``).
    """
    params = []
    for name in PROGRAM_MODULES:
        for repeat in (1, 2):
            if name == "suRef":
                if repeat == 2:
                    continue
                params.append(pytest.param(name, repeat, marks=pytest.mark.fuzz))
            else:
                params.append(pytest.param(name, repeat))
    return params


@pytest.mark.parametrize(("program", "repeat"), _parity_params())
def test_por_pipeline_matches_raw(program, repeat, monkeypatch):
    """POR on every search (no tiny-search bypass) changes no answer.

    The exposure table and verdict grid equal the raw pipeline's, every
    witness exists on both sides, and no exhaustive reduced search sees
    more states than its raw twin.
    """
    monkeypatch.setattr(engine_module, "REDUCTION_MIN_SPACE", 0)
    runs = {}
    for reduction in (False, True):
        analyzer = PrivAnalyzer(
            use_query_cache=False, reduction=reduction, message_repeat=repeat
        )
        runs[reduction] = analyzer.analyze(spec_by_name(program))
    raw, reduced = runs[False], runs[True]
    assert reduced.render_table() == raw.render_table()
    assert analysis_to_dict(reduced) == analysis_to_dict(raw)
    for raw_phase, reduced_phase in zip(raw.phases, reduced.phases):
        for attack_id, raw_report in raw_phase.verdicts.items():
            report = reduced_phase.verdicts[attack_id]
            assert report.verdict is raw_report.verdict
            assert bool(report.witness) == bool(raw_report.witness)
            if raw_report.verdict is Verdict.INVULNERABLE:
                assert report.states_seen <= raw_report.states_seen


# -- engine integration: cache identity and cached stats ----------------------


class TestEngineIntegration:
    def test_cache_key_separates_reduced_and_unreduced(self):
        query = symmetric_query()
        reduced_key = query_cache_key(query, DEFAULT_BUDGET, reduction=True)
        full_key = query_cache_key(query, DEFAULT_BUDGET, reduction=False)
        assert reduced_key != full_key

    def test_cached_outcome_round_trips_reduction_stats(self):
        query = bind_visible_query()
        report = check(query, BUDGET, reduction=True)
        assert report.stats.por_pruned > 0
        outcome = CachedOutcome.from_report(report)
        revived = CachedOutcome.from_json(outcome.to_json())
        restored = revived.to_report(query)
        assert restored.stats.por_pruned == report.stats.por_pruned
        assert restored.states_seen == report.states_seen


# -- incremental multiset hashing ---------------------------------------------


class TestIncrementalHash:
    def test_add_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        extra = model.user(7, 40)
        assert hash(base.add(extra)) == hash(Configuration(list(base) + [extra]))
        assert base.add(extra) == Configuration(list(base) + [extra])

    def test_remove_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        msg = next(base.messages("setuid"))
        removed = base.remove(msg)
        rebuilt_elements = list(base)
        rebuilt_elements.remove(msg)
        assert hash(removed) == hash(Configuration(rebuilt_elements))
        assert removed == Configuration(rebuilt_elements)

    def test_update_object_matches_fresh_construction(self):
        base = symmetric_setuid_config()
        proc = base.find_object(1)
        updated = base.update_object(proc.update(euid=20))
        rebuilt = [
            proc.update(euid=20) if element == proc else element
            for element in base
        ]
        assert hash(updated) == hash(Configuration(rebuilt))
        assert updated == Configuration(rebuilt)

    def test_hash_ignores_construction_order(self):
        elements = list(symmetric_setuid_config())
        assert hash(Configuration(elements)) == hash(
            Configuration(list(reversed(elements)))
        )

    def test_duplicate_counts_change_the_hash(self):
        msg = Msg("socket", 1, frozenset())
        once = Configuration([msg])
        twice = Configuration([msg, msg])
        assert hash(once) != hash(twice)
        assert once != twice

    def test_mixer_is_spread_not_identity(self):
        # Plain summation of small-int hashes would collide multisets
        # like {1, 3} and {2, 2}; the mixer must keep them apart.
        assert _mix(1) + _mix(3) != _mix(2) + _mix(2)
