"""Metrics and checks computed from measured phases.

End-to-end metrics come from an untraced phase.  Per-layer metrics come
from a traced phase: each span's *self* time is its duration minus its
child spans', and an op's root span (the benchmark's own, around the CLI
process, the in-process call or the serve round trip) parents every span
the op's process recorded without a parent there.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

#: Counts that must repeat exactly: across ops of one item, between the
#: untraced and traced phases, and between spans and program output.
EXACT = (
    "vm.instructions", "search.states_explored", "search.states_seen",
    "search.symmetry_hits", "search.por_pruned", "engine.queries",
    "store.hits", "store.published",
)

#: Span name -> the per-op self-time metric it feeds.  ``trace.install``
#: is the recorder's own cost and stays unattributed.
SELF_METRIC = {
    "cli.start": "cli.start_ms",
    "cli.import": "cli.import_ms",
    "cli.main": "cli.main_ms",
    "cli.exit": "cli.exit_ms",
    "pipeline": "pipeline.self_ms",
    "frontend": "frontend.self_ms",
    "autopriv": "autopriv.self_ms",
    "chronopriv": "chronopriv.instrument_ms",
    "vm": "vm.self_ms",
    "engine": "engine.self_ms",
    "search": "search.self_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "report": "report.self_ms",
}
#: Root span name -> the metric its self time feeds (``None``: unattributed).
ROOT_METRIC = {"op": None, "serve.request": "serve.overhead_ms"}

#: The layers' predicted share of op time, from the benchmark's issue:
#: (workload, op kind or None for all, label, self-time metrics, low, high).
PREDICTIONS = (
    ("cli-cold", None, "start + import", ("cli.start_ms", "cli.import_ms"), 0.85, 0.95),
    ("cli-cold", None, "ROSA (engine + search)", ("engine.self_ms", "search.self_ms"),
     0.0, 0.03),
    ("search-heavy", None, "ROSA search", ("search.self_ms",), 0.85, 1.0),
    ("search-heavy", None, "VM", ("vm.self_ms",), 0.0, 0.05),
    ("serve-mixed", "analyze", "compile + VM",
     ("frontend.self_ms", "autopriv.self_ms", "chronopriv.instrument_ms", "vm.self_ms"),
     0.5, 1.0),
)

#: The per-layer metrics the JSON result line carries, with units.  Times
#: that read exactly zero on every run of some workload are printed in
#: the report lines but left out here: those of layers that run on one
#: workload only, and ``unattributed_ms``, which is zero by construction
#: on serve-mixed (``attributed_pct`` carries the same fact).
PER_LAYER_UNITS = {
    "cli.start_ms": "ms", "cli.import_ms": "ms",
    "pipeline.self_ms": "ms",
    "frontend.self_ms": "ms", "frontend.ir_instructions": "count",
    "autopriv.self_ms": "ms", "autopriv.insertions": "count",
    "chronopriv.instrument_ms": "ms", "chronopriv.blocks": "count",
    "vm.self_ms": "ms", "vm.instructions": "count", "vm.minstr_per_s": "M/s",
    "engine.self_ms": "ms", "engine.queries": "count", "engine.lru_hit_rate": "ratio",
    "search.self_ms": "ms", "search.live": "count",
    "search.states_explored": "count", "search.states_seen": "count",
    "search.symmetry_hits": "count", "search.por_pruned": "count",
    "search.peak_frontier": "count", "search.states_per_s": "1/s",
    "store.hits": "count", "store.misses": "count", "store.published": "count",
    "store.rejected": "count", "store.hit_rate": "ratio",
    "report.self_ms": "ms",
    "attributed_pct": "%", "trace.overhead_pct": "%",
}
EXTRA_UNITS = {
    "cli.main_ms": "ms", "cli.exit_ms": "ms", "store.get_ms": "ms", "store.put_ms": "ms",
    "serve.overhead_ms": "ms", "serve.ping_ms": "ms", "unattributed_ms": "ms",
}


# -- end to end ----------------------------------------------------------------


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(phase) -> dict:
    """Metric name -> (value, unit), plus the tail's percentile and samples."""
    latencies = [op.ms for op in phase.ops]
    ok = sum(op.error is None for op in phase.ops)
    tail_ms, tail_pct = tail(latencies)
    return {
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "op_tail_pct": (tail_pct, "%"),
        "op_samples": (len(latencies), "count"),
        "ops_per_s": (ok / (phase.wall_ns / 1e9), "1/s"),
        "fail_rate": ((len(latencies) - ok) / len(latencies), "ratio"),
        "setup_s": (statistics.median(phase.setup_ns) / 1e9, "s"),
        "peak_rss_mb": (phase.peak_rss_kb / 1024, "MB"),
    }


# -- exact counts --------------------------------------------------------------


def _fail(op, why: str) -> None:
    op.error = op.error or why


def check_items(phase) -> None:
    """Ops of one item must read the same item counts."""
    first = {}
    for op in phase.ops:
        if op.error:
            continue
        seen = first.setdefault(op.item, op.item_counts)
        if op.item_counts != seen:
            _fail(op, f"counts {op.item_counts} differ from earlier {seen}")


def check_phases(untraced, traced) -> None:
    """Op ``i`` of both phases is the same request: same counts."""
    for before, after in zip(untraced.ops, traced.ops):
        if before.item != after.item:
            _fail(after, f"op stream diverged: {after.item} vs {before.item}")
        elif (before.item_counts, before.seq_counts) != (after.item_counts, after.seq_counts):
            _fail(
                after,
                f"traced counts {after.item_counts} {after.seq_counts} differ from "
                f"untraced {before.item_counts} {before.seq_counts}",
            )


def check_span_counts(phase, by_op, item_stable) -> None:
    """Span counts agree with the program's output, and, for the keys in
    ``item_stable``, across every op of one item."""
    first = {}
    for op in phase.ops:
        if op.error:
            continue
        counts = by_op.get(str(op.index), {})
        output = {**op.item_counts, **op.seq_counts}
        for key in EXACT:
            if key in output and output[key] != counts.get(key, 0):
                _fail(op, f"spans count {key}={counts.get(key, 0)}, output {output[key]}")
        stable = {key: counts.get(key, 0) for key in item_stable}
        seen = first.setdefault(op.item, stable)
        if stable != seen:
            _fail(op, f"span counts {stable} differ from earlier {seen}")


# -- spans ---------------------------------------------------------------------


def assign_by_time(phase) -> list:
    """Give spans recorded without an op (the serve subprocess) the op
    whose round trip contains their top-level ancestor."""
    ops = sorted(phase.ops, key=lambda op: op.start)
    starts = [op.start for op in ops]
    parent_of = {span[1]: span[2] for span in phase.spans}
    owner = {}
    for span in phase.spans:
        if span[2] is None:
            position = bisect.bisect_right(starts, span[4]) - 1
            if position >= 0 and span[5] <= ops[position].end:
                owner[span[1]] = str(ops[position].index)
    assigned = []
    for span in phase.spans:
        top = span[1]
        while parent_of.get(top) is not None:
            top = parent_of[top]
        if top in owner:
            assigned.append((owner[top], *span[1:]))
    return assigned


def layers(phase, root: str, spans_by_op) -> dict:
    """Per-op layer self times (ns) and counts, keyed by op id."""
    child_ns = defaultdict(int)
    for op_id, span_id, parent, name, start, end, counts in spans_by_op:
        child_ns[(op_id, parent)] += end - start
    per_op = {str(op.index): defaultdict(float) for op in phase.ops}
    for op_id, span_id, parent, name, start, end, counts in spans_by_op:
        row = per_op.get(op_id)
        if row is None:
            continue
        metric = SELF_METRIC.get(name)
        row[metric or "unattributed"] += end - start - child_ns[(op_id, span_id)]
        prefix = name.split(".")[0]
        for key, value in (counts or {}).items():
            if key == "peak_frontier":
                row[f"{prefix}.{key}"] = max(row[f"{prefix}.{key}"], value)
            else:
                row[f"{prefix}.{key}"] += value
    for op in phase.ops:
        row = per_op[str(op.index)]
        root_self = op.end - op.start - child_ns[(str(op.index), None)]
        row[ROOT_METRIC[root] or "unattributed"] += root_self
        row["op"] = op.end - op.start
    return per_op


def per_layer(workload, untraced, traced, per_op) -> dict:
    """Metric name -> (value, unit) for the traced phase."""
    ops = traced.ops
    n = len(ops)
    total = defaultdict(float)
    for row in per_op.values():
        for key, value in row.items():
            if key.endswith("peak_frontier"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    out = {}
    for metric in list(SELF_METRIC.values()) + ["serve.overhead_ms"]:
        out[metric] = total[metric] / n / 1e6
    setup = defaultdict(list)
    for span in traced.setup_spans:
        setup[span[3]].append(span[5] - span[4])
    if workload.name != "cli-cold":
        # These layers run only while setting up here: report one set-up
        # process's cost, not a per-op share.
        for name in ("cli.start", "cli.import"):
            values = setup.get(name)
            out[SELF_METRIC[name]] = statistics.median(values) / 1e6 if values else 0.0
    for key in ("frontend.ir_instructions", "autopriv.insertions", "chronopriv.blocks",
                "vm.instructions", "engine.queries", "search.live",
                "search.states_explored", "search.states_seen", "search.symmetry_hits",
                "search.por_pruned", "store.hits", "store.misses", "store.published",
                "store.rejected"):
        out[key] = total[key] / n
    out["search.peak_frontier"] = total["search.peak_frontier"]
    out["vm.minstr_per_s"] = _rate(total["vm.instructions"], total["vm.self_ms"]) / 1e6
    out["search.states_per_s"] = _rate(
        total["search.states_explored"], total["search.self_ms"]
    )
    out["engine.lru_hit_rate"] = _ratio(total["engine.lru_hits"], total["engine.lru_lookups"])
    out["store.hit_rate"] = _ratio(total["store.hits"], total["store.hits"] + total["store.misses"])
    out["serve.ping_ms"] = (
        statistics.median(traced.ping_ns) / 1e6 if traced.ping_ns else 0.0
    )
    out["unattributed_ms"] = total["unattributed"] / n / 1e6
    out["attributed_pct"] = 100.0 * (1.0 - _ratio(total["unattributed"], total["op"]))
    common = min(len(untraced.ops), n)
    out["trace.overhead_pct"] = 100.0 * (
        _ratio(sum(op.end - op.start for op in ops[:common]),
               sum(op.end - op.start for op in untraced.ops[:common])) - 1.0
    )
    units = {**PER_LAYER_UNITS, **EXTRA_UNITS}
    return {key: (value, units[key]) for key, value in out.items()}


def shares(workload, phase, per_op) -> list:
    """(label, measured share, low, high) for each prediction."""
    rows = []
    for name, kind, label, metrics, low, high in PREDICTIONS:
        if name != workload.name:
            continue
        chosen = [op for op in phase.ops if kind is None or op.kind == kind]
        total = sum(per_op[str(op.index)]["op"] for op in chosen)
        part = sum(
            per_op[str(op.index)][metric] for op in chosen for metric in metrics
        )
        rows.append((label, _ratio(part, total), low, high))
    return rows


def _rate(count, ns) -> float:
    return count / (ns / 1e9) if ns else 0.0


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
