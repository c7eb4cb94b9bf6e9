"""The shared verdict store: fleet-wide compute-once, fail-closed serving.

The acceptance bar has two halves.  Efficiency: a second engine (or a
second process, or a second client of ``privanalyzer serve``) over a
warm store must serve its searches from disk instead of re-running BFS.
Safety: nothing is ever served that cannot be re-attested — corruption,
schema skew, or a foreign rule system mean recompute, never trust.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import threading
import time

import pytest

from repro.caps import CapabilitySet
from repro.rewriting import SearchBudget
from repro.rosa import QueryCache, QueryEngine, check, goals, query_cache_key
from repro.rosa.engine import CachedOutcome
from repro.rosa.store import (
    STORE_SCHEMA_VERSION,
    SharedVerdictStore,
    SingleFlight,
    advisory_lock,
    attest,
    rule_signature_hex,
)
from repro.testkit.oracles import report_fingerprint

from tests.test_rosa_engine import BUDGET, attack_requests, shadow_query


def outcome_for(index: int) -> CachedOutcome:
    """A synthetic, deterministic outcome distinguishable per index."""
    return CachedOutcome(
        verdict="vulnerable" if index % 2 else "invulnerable",
        witness=(f"rule-{index}", "open-file"),
        states_explored=100 + index,
        states_seen=200 + index,
        elapsed=0.0,
        peak_frontier=3,
        dedup_hits=index,
        max_depth=4,
    )


def key_for(index: int) -> str:
    return hashlib.sha256(b"stress-key-%d" % index).hexdigest()


class TestAdvisoryLock:
    def test_lock_creates_and_removes_lockfile(self, tmp_path):
        target = str(tmp_path / "cache.json")
        with advisory_lock(target):
            assert (tmp_path / "cache.json.lock").exists()
        assert not (tmp_path / "cache.json.lock").exists()

    def test_contended_lock_times_out_loudly(self, tmp_path):
        target = str(tmp_path / "cache.json")
        with advisory_lock(target):
            with pytest.raises(TimeoutError, match="could not acquire"):
                with advisory_lock(target, timeout=0.05):
                    pass  # pragma: no cover

    def test_stale_lock_is_broken(self, tmp_path):
        target = str(tmp_path / "cache.json")
        lock = tmp_path / "cache.json.lock"
        lock.write_text("99999")
        stale = time.time() - 120.0
        import os

        os.utime(lock, (stale, stale))
        with advisory_lock(target, timeout=1.0, stale_after=30.0):
            pass  # the orphan was broken, not waited out
        assert not lock.exists()


class TestSharedVerdictStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(0)
        assert store.get(key) is None  # cold miss
        assert store.put(key, outcome_for(0)) is True
        served = store.get(key)
        assert served == outcome_for(0)
        assert dataclasses.asdict(served) == dataclasses.asdict(outcome_for(0))
        assert store.hits == 1 and store.misses == 1 and store.published == 1

    def test_publish_is_idempotent(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(1)
        assert store.put(key, outcome_for(1)) is True
        assert store.put(key, outcome_for(1)) is False  # already attested
        assert store.published == 1
        assert store.entry_count() == 1

    def test_second_handle_serves_what_first_published(self, tmp_path):
        first = SharedVerdictStore(tmp_path)
        first.put(key_for(2), outcome_for(2))
        second = SharedVerdictStore(tmp_path)
        assert second.get(key_for(2)) == outcome_for(2)
        assert second.hits == 1 and second.rejected == 0

    def test_tampered_outcome_is_rejected_and_recomputable(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(3)
        store.put(key, outcome_for(3))
        path = store._path(key)
        entry = json.loads(path.read_text())
        entry["outcome"]["verdict"] = "invulnerable"  # flip the verdict
        path.write_text(json.dumps(entry))

        assert store.get(key) is None  # fail closed: never served
        assert store.rejected == 1
        # Publishing again is the repair path.
        assert store.put(key, outcome_for(3)) is True
        assert store.get(key) == outcome_for(3)

    def test_truncated_object_is_rejected(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(4)
        store.put(key, outcome_for(4))
        store._path(key).write_text('{"schema": 1, "ke')  # torn write
        assert store.get(key) is None
        assert store.rejected == 1

    def test_schema_skew_is_rejected(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        key = key_for(5)
        store.put(key, outcome_for(5))
        path = store._path(key)
        entry = json.loads(path.read_text())
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(key) is None
        assert store.rejected == 1

    def test_foreign_rule_signature_is_rejected(self, tmp_path):
        writer = SharedVerdictStore(tmp_path)
        key = key_for(6)
        writer.put(key, outcome_for(6))
        reader = SharedVerdictStore(tmp_path)
        reader.signature = "0" * 64  # a store bound to other rules
        assert reader.get(key) is None
        assert reader.rejected == 1

    def test_attestation_covers_every_field(self, tmp_path):
        signature = rule_signature_hex()
        base = attest(key_for(7), outcome_for(7), signature)
        assert attest(key_for(8), outcome_for(7), signature) != base
        assert attest(key_for(7), outcome_for(8), signature) != base
        assert attest(key_for(7), outcome_for(7), "0" * 64) != base

    def test_lineage_records_every_publish(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        for index in range(3):
            store.put(key_for(index), outcome_for(index))
        store.put(key_for(0), outcome_for(0))  # idempotent: no new record
        records = store.lineage()
        assert [r["key"] for r in records] == [key_for(i) for i in range(3)]
        for record in records:
            assert record["signature"] == store.signature
            assert "ts" in record and "pid" in record

    def test_stats_shape(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        store.put(key_for(0), outcome_for(0))
        store.get(key_for(0))
        store.get(key_for(1))
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["published"] == 1 and stats["rejected"] == 0
        assert stats["schema"] == STORE_SCHEMA_VERSION


# -- multi-process stress ------------------------------------------------------

STRESS_KEYS = 24


def _stress_writer(root: str, worker: int, barrier) -> None:
    """Publish every stress key, racing the other writers."""
    store = SharedVerdictStore(root)
    barrier.wait()
    indices = list(range(STRESS_KEYS))
    # Different walk order per worker maximises same-key collisions.
    if worker % 2:
        indices.reverse()
    for index in indices:
        store.put(key_for(index), outcome_for(index))


def _stress_reader(root: str, barrier, failures) -> None:
    """Read every key repeatedly while writers race; report anomalies."""
    store = SharedVerdictStore(root)
    barrier.wait()
    for _ in range(30):
        for index in range(STRESS_KEYS):
            served = store.get(key_for(index))
            if served is not None and served != outcome_for(index):
                failures.put(f"torn read at key {index}: {served!r}")
                return
    if store.rejected:
        failures.put(f"reader rejected {store.rejected} entries mid-race")


class TestMultiProcessStress:
    def test_n_writers_m_readers_no_lost_or_torn_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(6)
        failures = ctx.Queue()
        writers = [
            ctx.Process(target=_stress_writer, args=(str(tmp_path), w, barrier))
            for w in range(3)
        ]
        readers = [
            ctx.Process(target=_stress_reader, args=(str(tmp_path), barrier, failures))
            for _ in range(3)
        ]
        procs = writers + readers
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert failures.empty(), failures.get()

        # No lost entries: every key landed exactly once, all attested.
        store = SharedVerdictStore(tmp_path)
        assert store.entry_count() == STRESS_KEYS
        for index in range(STRESS_KEYS):
            assert store.get(key_for(index)) == outcome_for(index)
        assert store.rejected == 0
        # Lineage saw at least one publish per key (racing duplicates of
        # an already-valid object return False and add no record).
        lineage_keys = {record["key"] for record in store.lineage()}
        assert lineage_keys == {key_for(i) for i in range(STRESS_KEYS)}


class TestSingleFlight:
    def test_leader_computes_joiner_is_served(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=10.0)
        key = key_for(0)
        assert flight.get(key) is None  # this thread is now the leader
        results = []

        def joiner():
            results.append(flight.get(key))

        thread = threading.Thread(target=joiner)
        thread.start()
        time.sleep(0.05)  # let the joiner block on the in-flight event
        assert flight.put(key, outcome_for(0)) is True
        thread.join(timeout=10)
        assert results == [outcome_for(0)]
        assert flight.leaders == 1
        assert flight.joined == 1
        # One search ran; the joiner never became a second leader.
        assert flight.store.published == 1

    def test_joiner_falls_back_to_live_compute_on_leader_death(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=0.05)
        key = key_for(1)
        assert flight.get(key) is None  # leader acquires... and "dies"
        assert flight.get(key) is None  # joiner times out: compute live
        # The fallback publish releases the flight for everyone.
        assert flight.put(key, outcome_for(1)) is True
        assert flight.get(key) == outcome_for(1)

    def test_refused_publish_still_releases_joiners(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path), timeout=60.0)
        key = key_for(3)
        assert flight.get(key) is None  # leader
        results = []
        thread = threading.Thread(target=lambda: results.append(flight.get(key)))
        thread.start()
        time.sleep(0.05)  # let the joiner block on the in-flight event
        wall_clock = dataclasses.replace(outcome_for(3), stop_reason="max_seconds")
        assert flight.put(key, wall_clock) is False
        thread.join(timeout=10)
        # Released by the refused put, not by the 60 s flight timeout:
        # the joiner computes live instead of being served the TIMEOUT.
        assert not thread.is_alive()
        assert results == [None]
        assert flight.stats()["single_flight"]["inflight"] == 0

    def test_warm_hits_bypass_coalescing(self, tmp_path):
        flight = SingleFlight(SharedVerdictStore(tmp_path))
        flight.get(key_for(2))
        flight.put(key_for(2), outcome_for(2))
        assert flight.get(key_for(2)) == outcome_for(2)
        stats = flight.stats()
        assert stats["single_flight"] == {"leaders": 1, "joined": 0, "inflight": 0}


# -- engine integration --------------------------------------------------------


class TestEngineIntegration:
    def test_second_engine_is_store_served_and_bit_identical(self, tmp_path):
        requests = attack_requests(
            CapabilitySet.of("CAP_DAC_READ_SEARCH", "CAP_SETUID", "CAP_KILL"),
            (1000, 0, 0),
            (1000, 1000, 1000),
            frozenset({"open", "setuid", "kill", "socket", "bind"}),
            repeat=2,
        )
        budget = SearchBudget(max_states=20_000, max_seconds=20.0)

        cold_store = SharedVerdictStore(tmp_path)
        cold = QueryEngine(budget=budget, cache=QueryCache(), store=cold_store)
        cold_reports = cold.run_queries(requests)
        assert cold_store.published > 0
        assert cold_store.hits == 0

        warm_store = SharedVerdictStore(tmp_path)
        warm = QueryEngine(budget=budget, cache=QueryCache(), store=warm_store)
        warm_reports = warm.run_queries(requests)

        lookups = warm_store.hits + warm_store.misses
        assert lookups > 0
        assert warm_store.hits / lookups >= 0.9  # the perf-gate bar
        assert warm_store.rejected == 0
        for cold_report, warm_report in zip(cold_reports, warm_reports):
            assert report_fingerprint(cold_report) == report_fingerprint(
                warm_report
            )
        assert all(report.from_cache for report in warm_reports)

    def test_single_check_consults_store_before_searching(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        first = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        report = first.check(shadow_query())
        assert not report.from_cache
        assert store.published == 1

        second = QueryEngine(
            budget=BUDGET, cache=QueryCache(), store=SharedVerdictStore(tmp_path)
        )
        served = second.check(shadow_query("same-content-other-name"))
        assert served.from_cache
        assert report_fingerprint(served) == report_fingerprint(report)

    def test_store_hit_warms_the_in_memory_cache(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        QueryEngine(budget=BUDGET, cache=QueryCache(), store=store).check(
            shadow_query()
        )
        warm_store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=BUDGET, cache=QueryCache(), store=warm_store
        )
        engine.check(shadow_query())
        engine.check(shadow_query())
        # Disk was read once; the second check hit the L1.
        assert warm_store.hits == 1
        assert engine.cache.hits == 1

    def test_cache_stats_reports_the_attached_store(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        engine.check(shadow_query())
        stats = engine.cache_stats()
        assert stats["store"]["published"] == 1
        assert stats["store"]["entries"] == 1

    @pytest.mark.parametrize("entry_point", ["check", "run_queries"])
    def test_wall_clock_timeout_is_never_published(self, tmp_path, entry_point):
        # The clock reads 0 when the search starts and 10^6 s ever after,
        # so the first budget check finds max_seconds exceeded.
        readings = itertools.chain([0.0], itertools.repeat(1e6))
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(
            budget=BUDGET,
            cache=QueryCache(),
            store=store,
            checker=functools.partial(check, clock=lambda: next(readings)),
        )
        answer = getattr(engine, entry_point)
        report = answer(shadow_query()) if entry_point == "check" else (
            answer([shadow_query()])[0]
        )
        assert report.verdict.value == "timeout"
        assert report.stats.stop_reason == "max_seconds"
        assert store.published == 0
        assert store.entry_count() == 0
        assert store.lineage() == []

        # A states-limit TIMEOUT is the same on every host: it publishes.
        unreachable = shadow_query(goal=goals.file_opened_for_write(3))
        tight = SearchBudget(max_states=1, max_seconds=30.0)
        engine = QueryEngine(budget=tight, cache=QueryCache(), store=store)
        report = engine.check(unreachable)
        assert report.verdict.value == "timeout"
        assert report.stats.stop_reason == "max_states"
        assert store.published == 1
        reduction = engine._effective_reduction(unreachable)
        served = SharedVerdictStore(tmp_path).get(
            query_cache_key(unreachable, tight, reduction=reduction)
        )
        assert served.stop_reason == "max_states"

    def test_store_key_is_the_canonical_query_key(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        query = shadow_query()
        engine.check(query)
        key = query_cache_key(
            query, BUDGET, reduction=engine._effective_reduction(query)
        )
        assert store._path(key).exists()


# -- cache schema 5: entries from the symmetry-reduction build fail closed -----


def symmetry_era_outcome(verdict: str) -> dict:
    """A cache-schema-4 outcome payload, as the symmetry build wrote it."""
    return {
        "verdict": verdict,
        "witness": [],
        "states_explored": 3,
        "states_seen": 2,
        "elapsed": 0.001,
        "peak_frontier": 1,
        "dedup_hits": 0,
        "max_depth": 1,
        "symmetry_hits": 5,
        "por_pruned": 0,
    }


class TestSchemaFourIsRefused:
    """``reduction=True`` changed meaning at cache schema 5 (POR only).

    A v4 store object must never be served, even where its key matches:
    the planted entry below carries a wrong verdict, so serving it would
    be visible in the answer.
    """

    def test_v4_store_object_is_rejected_and_recomputed(self, tmp_path):
        store = SharedVerdictStore(tmp_path)
        engine = QueryEngine(budget=BUDGET, cache=QueryCache(), store=store)
        query = shadow_query()
        key = query_cache_key(
            query, BUDGET, reduction=engine._effective_reduction(query)
        )
        outcome = symmetry_era_outcome("invulnerable")
        material = json.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "cache_schema": 4,
                "key": key,
                "signature": store.signature,
                "outcome": outcome,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "cache_schema": 4,
                    "key": key,
                    "signature": store.signature,
                    "outcome": outcome,
                    "attestation": hashlib.sha256(material.encode()).hexdigest(),
                }
            )
        )

        report = engine.check(query)
        assert store.rejected == 1
        assert store.hits == 0
        assert not report.from_cache  # searched live
        assert report.verdict.value == "vulnerable"
        assert report.stats.symmetry_hits == 0
        # The live answer replaced the stale object (the repair path).
        assert store.published == 1
        assert SharedVerdictStore(tmp_path).get(key).verdict == "vulnerable"
