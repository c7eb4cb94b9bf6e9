"""Content-addressed profile cache backing incremental corpus sweeps.

One JSON file per profile, named by :func:`repro.corpus.profile.
profile_key` — the sha256 of everything that can change the result.  A
warm sweep over an unchanged corpus therefore reads every profile from
disk and runs the pipeline zero times; editing one program invalidates
exactly its entry.  Writes are atomic (tempfile + ``os.replace``), like
the shared verdict store's publishes, so a crashed sweep never leaves a
torn profile behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.corpus.profile import PROFILE_SCHEMA_VERSION, PrivilegeProfile


class ProfileStore:
    """A directory of content-addressed ``<key>.json`` profiles."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[PrivilegeProfile]:
        """The cached profile under ``key``, or None (counts a miss)."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if data.get("schema") != PROFILE_SCHEMA_VERSION:
            # A stale layout is a miss, not an error: the sweep simply
            # recomputes and overwrites it.
            self.misses += 1
            return None
        self.hits += 1
        return PrivilegeProfile.from_dict(data)

    def put(self, key: str, profile: PrivilegeProfile) -> None:
        data = json.dumps(profile.to_dict(), indent=2, sort_keys=True) + "\n"
        handle, temp_path = tempfile.mkstemp(
            dir=str(self.root), prefix=".profile-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(data)
            os.replace(temp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def stats(self) -> Dict[str, Any]:
        total = self.hits + self.misses
        return {
            "entries": len(list(self.root.glob("*.json"))),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }
