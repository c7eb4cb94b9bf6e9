"""Fleet-wide, content-addressed shared verdict store.

:class:`SharedVerdictStore` turns per-process query caching into
compute-once across a whole fleet: every verdict lives as one JSON
object named by its canonical query key (sha256 — see
:func:`repro.rosa.engine.query_cache_key`), sharded into fanout
directories, published atomically, and attested.  Any process — engine
batches, corpus sweep workers, ``privanalyzer serve`` request handlers —
that derives the same key reads the same object instead of re-running
the BFS.

Design rules, following the fail-closed promotion discipline of the
Crypto-Anaylzer exemplar (SNIPPETS.md):

* **Content addressing.** The object path is a pure function of the
  canonical query key; the key already binds the initial configuration,
  goal, rule-system signature, budget, reduction flag and cache schema
  version, so two processes cannot disagree about where a verdict lives.
* **Atomic publish.** Objects are written tempfile-then-``os.replace``
  in the destination shard, so readers never observe a torn entry and
  concurrent publishers of the same key are harmless (same content —
  last replace wins bit-identically).
* **Fail closed.** An entry is served only if its recorded rule-system
  signature matches this store's, its schema versions match, and its
  attestation (a sha256 over the canonical entry material) re-validates.
  Anything else — corruption, tampering, version skew, a foreign rule
  system — is *rejected*: counted, skipped, and recomputed live by the
  caller, never trusted.
* **Only reproducible verdicts.** An outcome whose search was cut off
  by the wall-clock limit (``stop_reason == "max_seconds"``) is never
  published: a faster or idler host might finish the same search, so
  that TIMEOUT is a fact about the host, not the query.  The states and
  depth limits give the same answer everywhere and do publish.
* **Append-only lineage.** Every publish appends one JSON line to
  ``lineage.jsonl`` under an :func:`advisory_lock`, so the store's
  history is auditable (who published what, when, under which
  signature).

The store is deliberately engine-shaped: ``get(key)`` returns a
:class:`~repro.rosa.engine.CachedOutcome` or ``None`` and
``put(key, outcome)`` returns whether a fresh object was published —
exactly the duck type :class:`~repro.rosa.engine.QueryEngine` consults
as its L2 behind the in-memory LRU.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.rosa.engine import CACHE_SCHEMA_VERSION, CachedOutcome, system_signature

logger = logging.getLogger("repro.rosa.store")

#: Bump when the on-disk entry layout or the attestation material
#: changes; entries with another version are rejected (recomputed and
#: republished), never misread.
STORE_SCHEMA_VERSION = 1

#: Subdirectory holding the sharded verdict objects.
OBJECTS_DIR = "objects"

#: Append-only publish history, one JSON line per published object.
LINEAGE_FILE = "lineage.jsonl"

#: The one stop reason that depends on the host rather than the query.
WALL_CLOCK_STOP = "max_seconds"


@contextlib.contextmanager
def advisory_lock(
    path: str, timeout: float = 10.0, stale_after: float = 30.0
) -> Iterator[None]:
    """An advisory cross-process lock around ``path`` (a ``.lock`` sibling).

    Lockfile-based (``O_CREAT | O_EXCL``), so it works on any filesystem
    the store can live on — no ``fcntl`` dependency, no byte-range
    semantics to get wrong over NFS.  Waiting processes poll; a lockfile
    older than ``stale_after`` seconds is treated as an orphan (its
    holder crashed between acquire and release) and broken.  Raises
    ``TimeoutError`` if the lock cannot be won inside ``timeout`` seconds
    — callers must fail loudly rather than scribble over a file another
    process is appending to.
    """
    lock_path = path + ".lock"
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except OSError as error:
            if error.errno != errno.EEXIST:
                raise
        try:
            age = time.time() - os.stat(lock_path).st_mtime
            if age > stale_after:
                # The holder died without releasing; break the orphan.
                # (A racing breaker just loses the unlink — harmless.)
                logger.warning("breaking stale lock %s (age %.1fs)", lock_path, age)
                os.unlink(lock_path)
                continue
        except OSError:
            pass  # the holder released between our open and stat
        if time.monotonic() >= deadline:
            raise TimeoutError(f"could not acquire {lock_path} in {timeout}s")
        time.sleep(0.002)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:  # pragma: no cover - already broken as stale
            pass


def rule_signature_hex(system=None) -> str:
    """Hex digest of the rule-system signature entries bind to.

    ``None`` means the default UNIX module.  Stored in every entry and
    checked on every read: a store written under one rule set is never
    served under another.
    """
    signature = system_signature(system)
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()


def attest(key: str, outcome: CachedOutcome, signature: str) -> str:
    """The attestation digest of one store entry.

    A sha256 over the canonical JSON of everything the entry asserts:
    both schema versions, the canonical query key, the rule-system
    signature digest, and the full outcome.  Readers recompute this and
    compare; a single flipped byte anywhere in the served material
    changes the digest and the entry is rejected (fail closed).
    """
    material = json.dumps(
        {
            "schema": STORE_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "signature": signature,
            "outcome": outcome.to_json(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class SharedVerdictStore:
    """A directory of attested, content-addressed search outcomes.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one verdict per canonical key
        <root>/lineage.jsonl                  append-only publish history

    Safe for any number of concurrent reader and writer processes: reads
    never block, publishes are atomic replaces, and the only lock taken
    is around the lineage append.
    """

    def __init__(self, root: Union[str, Path], system=None) -> None:
        self.root = Path(root)
        self.objects = self.root / OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.signature = rule_signature_hex(system)
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.rejected = 0

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> Optional[CachedOutcome]:
        """The attested outcome under ``key``, or ``None``.

        A missing object is a plain miss.  A present-but-invalid object
        (corrupt JSON, schema skew, foreign rule signature, attestation
        mismatch) is a *rejection*: counted separately, logged once, and
        reported as a miss so the caller recomputes live — the
        fail-closed path never serves what it cannot re-validate.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            logger.warning("store entry %s unreadable; rejecting", path)
            self.rejected += 1
            self.misses += 1
            return None
        outcome = self._validate(key, entry)
        if outcome is None:
            logger.warning("store entry %s failed attestation; rejecting", path)
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def _validate(self, key: str, entry: Any) -> Optional[CachedOutcome]:
        """Re-derive the entry's attestation; ``None`` on any mismatch."""
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != STORE_SCHEMA_VERSION:
            return None
        if entry.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("key") != key:
            return None
        if entry.get("signature") != self.signature:
            return None
        try:
            outcome = CachedOutcome.from_json(entry["outcome"])
        except (KeyError, TypeError, ValueError):
            return None
        if entry.get("attestation") != attest(key, outcome, self.signature):
            return None
        return outcome

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, outcome: CachedOutcome) -> bool:
        """Publish ``outcome`` under ``key``; True if a fresh object landed.

        A wall-clock TIMEOUT is refused (nothing is written; see the
        module docstring).  The refusal lives here, behind the engine's
        one publish call, so :class:`SingleFlight` still releases the
        joiners waiting on the key.  Re-publishing a key whose on-disk
        object already validates is a no-op (the content is identical by
        construction — the key binds every search input).  An invalid
        object in the way is replaced: publishing is also the repair path
        for rejected entries.
        """
        if outcome.stop_reason == WALL_CLOCK_STOP:
            logger.debug("not publishing %s: wall-clock TIMEOUT", key)
            return False
        path = self._path(key)
        if path.exists():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    if self._validate(key, json.load(handle)) is not None:
                        return False
            except (OSError, ValueError):
                pass  # torn or corrupt: fall through and replace it
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "signature": self.signature,
            "outcome": outcome.to_json(),
            "attestation": attest(key, outcome, self.signature),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=str(path.parent), prefix=".verdict-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.published += 1
        self._append_lineage(key, outcome, entry["attestation"])
        return True

    def _append_lineage(
        self, key: str, outcome: CachedOutcome, attestation: str
    ) -> None:
        """One publish record into the append-only history, under the lock."""
        record = {
            "ts": round(time.time(), 3),
            "pid": os.getpid(),
            "key": key,
            "verdict": outcome.verdict,
            "signature": self.signature,
            "attestation": attestation,
        }
        lineage = self.root / LINEAGE_FILE
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            with advisory_lock(str(lineage)):
                with open(lineage, "a", encoding="utf-8") as handle:
                    handle.write(line)
        except (OSError, TimeoutError) as error:  # pragma: no cover - contention
            # Lineage is an audit trail, not a correctness dependency:
            # losing one record under extreme contention must not fail
            # the publish that already landed.
            logger.warning("lineage append failed for %s: %s", key, error)

    # -- introspection ---------------------------------------------------------

    def entry_count(self) -> int:
        """Objects on disk right now (walks the fanout dirs)."""
        count = 0
        try:
            with os.scandir(self.objects) as shards:
                for shard in shards:
                    if not shard.is_dir():
                        continue
                    with os.scandir(shard.path) as objects:
                        count += sum(
                            1 for obj in objects if obj.name.endswith(".json")
                        )
        except OSError:
            return 0
        return count

    def lineage(self) -> list:
        """All parseable lineage records, oldest first."""
        path = self.root / LINEAGE_FILE
        records = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        continue
        except OSError:
            return []
        return records

    def stats(self) -> Dict[str, Any]:
        """This handle's counters plus the store's on-disk entry count."""
        total = self.hits + self.misses
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "signature": self.signature,
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "published": self.published,
            "rejected": self.rejected,
        }


class SingleFlight:
    """In-process request coalescing in front of a shared store.

    ``privanalyzer serve`` answers many concurrent clients; without
    coalescing, N simultaneous requests for the same cold key would all
    miss the store and run N identical searches.  The first thread to
    miss becomes the *leader* (gets ``None`` back and is expected to
    search and :meth:`put`); threads that miss the same key while the
    leader is in flight *join*: they block until the leader publishes,
    then read the published object.  A leader that dies without
    publishing stops nobody — joiners time out and compute the answer
    themselves (the store's idempotent publish makes the duplicate
    harmless).

    Wraps — and duck-types — the store interface, so it drops into
    :class:`~repro.rosa.engine.QueryEngine` as the ``store`` unchanged.
    """

    def __init__(self, store: SharedVerdictStore, timeout: float = 60.0) -> None:
        self.store = store
        self.timeout = timeout
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self.leaders = 0
        self.joined = 0

    def get(self, key: str) -> Optional[CachedOutcome]:
        outcome = self.store.get(key)
        if outcome is not None:
            return outcome
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                self.leaders += 1
                return None  # this caller is the leader: search, then put()
        if event.wait(self.timeout):
            outcome = self.store.get(key)
            if outcome is not None:
                self.joined += 1
                return outcome
        # The leader timed out or its publish was rejected: fall back to
        # computing live — correctness over coalescing.
        return None

    def put(self, key: str, outcome: CachedOutcome) -> bool:
        published = self.store.put(key, outcome)
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()
        return published

    def stats(self) -> Dict[str, Any]:
        stats = self.store.stats()
        stats["single_flight"] = {
            "leaders": self.leaders,
            "joined": self.joined,
            "inflight": len(self._inflight),
        }
        return stats
