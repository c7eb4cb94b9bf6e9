"""``make perf-history``: the benchmark trajectory across commits.

``BENCH_rosa.json`` is one snapshot — the *latest* numbers.  This tool
keeps the whole trajectory: ``append`` folds the current snapshot into
``BENCH_history.jsonl`` (one JSON record per line, stamped with the git
SHA and a timestamp), and ``show`` renders a per-entry table of
wall-clock across the recorded history, flagging entries whose latest
run regressed against the previous record.

Usage::

    python benchmarks/perf_history.py append      # after `make bench-json`
    python benchmarks/perf_history.py show
    python benchmarks/perf_history.py show --last 5

Stdlib only.  Timestamps are injected at the entry point (tests pass
constants), matching the run-ledger convention.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(__file__))

from perf_snapshot import git_sha  # noqa: E402

HISTORY_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_history.jsonl")
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rosa.json")

#: Latest-vs-previous slow-down ratio beyond which ``show`` flags a row.
REGRESSION_RATIO = 1.5
#: Deltas under this many seconds are never flagged — sub-floor noise.
REGRESSION_FLOOR = 0.05


def is_regression(
    previous: float, latest: float, ratio: float = REGRESSION_RATIO
) -> bool:
    """Whether ``latest`` seconds regressed against ``previous`` seconds:
    more than ``ratio`` times slower and more than
    :data:`REGRESSION_FLOOR` seconds slower."""
    return latest > previous * ratio and latest - previous > REGRESSION_FLOOR


def load_history(path: str = HISTORY_PATH) -> List[Dict]:
    """Every record in the history file, oldest first (missing file → [])."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: corrupt history record: {error}"
                )
    return records


def record_from_snapshot(snapshot: Dict, timestamp: float) -> Dict:
    """One history line: provenance plus per-entry wall-clock and speedups.

    Prefers the snapshot's own ``meta`` provenance (written by
    ``make bench-json``); ``timestamp`` and a fresh ``git rev-parse``
    fill in for pre-meta snapshots.
    """
    meta = snapshot.get("meta", {})
    return {
        "schema": 1,
        "git_sha": meta.get("git_sha") or git_sha(),
        "timestamp_unix": meta.get("timestamp_unix", timestamp),
        "repeats": snapshot.get("repeats"),
        "entries": {
            name: entry.get("wall_seconds")
            for name, entry in sorted(snapshot.get("entries", {}).items())
            if isinstance(entry, dict)
        },
        "speedups": snapshot.get("speedups", {}),
    }


def append_snapshot(
    snapshot_path: str = SNAPSHOT_PATH,
    history_path: str = HISTORY_PATH,
    timestamp: Optional[float] = None,
) -> Dict:
    """Append the current snapshot to the history; returns the record."""
    try:
        with open(snapshot_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"perf-history: no snapshot at {os.path.abspath(snapshot_path)} — "
            f"run `make bench-json` first"
        )
    except ValueError as error:
        raise SystemExit(
            f"perf-history: unreadable snapshot "
            f"{os.path.abspath(snapshot_path)}: {error}"
        )
    record = record_from_snapshot(
        snapshot, time.time() if timestamp is None else timestamp
    )
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def render_trajectory(
    records: List[Dict],
    last: Optional[int] = None,
    regression_ratio: float = REGRESSION_RATIO,
) -> str:
    """A per-entry wall-clock table across history records, newest last.

    The final column flags entries whose latest run is more than
    ``regression_ratio`` times the previous record (and at least
    :data:`REGRESSION_FLOOR` seconds slower).
    """
    if not records:
        return "(no history — run `make bench-json` then perf-history append)"
    if last is not None and last > 0:
        records = records[-last:]
    names = sorted({name for record in records for name in record.get("entries", {})})
    shas = [str(record.get("git_sha", "?"))[:10] for record in records]
    header = f"{'entry':<34}" + "".join(f" {sha:>11}" for sha in shas) + "  trend"
    lines = [header, "-" * len(header)]
    for name in names:
        walls = [record.get("entries", {}).get(name) for record in records]
        cells = "".join(
            f" {wall * 1000:>9.1f}ms" if wall is not None else f" {'—':>11}"
            for wall in walls
        )
        trend = ""
        known = [wall for wall in walls if wall is not None]
        if len(known) >= 2:
            previous, latest = known[-2], known[-1]
            if is_regression(previous, latest, regression_ratio):
                trend = f"  REGRESSED {latest / previous:.1f}x"
            elif previous > 0 and latest < previous / regression_ratio:
                trend = f"  improved {previous / latest:.1f}x"
        lines.append(f"{name:<34}{cells}{trend}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf-history",
        description="Track BENCH_rosa.json snapshots across commits.",
    )
    parser.add_argument(
        "--history", default=HISTORY_PATH, metavar="PATH",
        help="history file (default BENCH_history.jsonl at the repo root)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    append = sub.add_parser(
        "append", help="fold the current BENCH_rosa.json into the history"
    )
    append.add_argument(
        "--snapshot", default=SNAPSHOT_PATH, metavar="PATH",
        help="snapshot to record (default BENCH_rosa.json)",
    )
    show = sub.add_parser("show", help="render the trajectory table")
    show.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the newest N records (default: all)",
    )
    show.add_argument(
        "--regression-ratio", type=float, default=REGRESSION_RATIO, metavar="R",
        help=f"flag entries whose latest run is R× the previous "
        f"(default {REGRESSION_RATIO})",
    )
    args = parser.parse_args(argv)
    if args.command == "append":
        record = append_snapshot(
            snapshot_path=args.snapshot, history_path=args.history,
            timestamp=time.time(),
        )
        print(
            f"perf-history: recorded {len(record['entries'])} entries at "
            f"{record['git_sha'][:10]} -> {os.path.abspath(args.history)}"
        )
        print(render_trajectory(load_history(args.history)))
        return 0
    records = load_history(args.history)
    print(
        render_trajectory(
            records, last=args.last, regression_ratio=args.regression_ratio
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
