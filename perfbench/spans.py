"""Spans for the traced benchmark run, recorded from outside the program.

The program's own ``Telemetry`` stays disabled.  Instead, :func:`install`
replaces a fixed set of public functions with wrappers that record one
span per call: name, start, end, parent span, the id of the benchmark op
the call belongs to, and a few counts read off the call's arguments and
result.  Functions imported by name are wrapped at the module that calls
them (``repro.core.pipeline.compile_source``), methods on their class.

Spans are kept in memory and written once, when the run or the child
process ends.  Times come from ``time.monotonic_ns``, which is
``CLOCK_MONOTONIC`` on Linux, so spans from the benchmark process, a CLI
child and the serve subprocess share one time base.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

now = time.monotonic_ns


class Recorder:
    """Collects spans for the op that is current on the calling thread.

    Spans outside any op are not recorded, unless ``default_op`` is set:
    then every thread records, and the benchmark assigns the spans to its
    ops afterwards by time (the serve subprocess, whose request threads
    the benchmark cannot label).
    """

    def __init__(self, id_prefix: str = "", default_op=None) -> None:
        self.spans = []
        self.default_op = default_op
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._installed = []

    def new_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    def _stack(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.op = self.default_op
            local.stack = []
            return local.stack

    def begin_op(self, op) -> None:
        self._local.op = op
        self._local.stack = []

    def end_op(self) -> None:
        self._local.op = self.default_op

    def add(self, op, name, start, end, parent=None, counts=None, span_id=None):
        span_id = span_id or self.new_id()
        self.spans.append((op, span_id, parent, name, start, end, counts))
        return span_id

    @contextlib.contextmanager
    def span(self, name):
        """Record a ``name`` span around a block on the current op."""
        stack = self._stack()
        op = self._local.op
        span_id = self.new_id()
        stack.append(span_id)
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            if op is not None:
                self.add(op, name, start, end, stack[-1] if stack else None,
                         span_id=span_id)

    def wrap(self, owner, attr, name, counts=None, before=None):
        """Record a ``name`` span around every in-op call of ``owner.attr``.

        ``before(args)`` runs ahead of the call; ``counts(args, result,
        token)`` turns its token and the result into a dict of counts.
        Both run outside the span's interval.
        """
        original = getattr(owner, attr)
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            op = local.op
            if op is None:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = self.new_id()
            token = before(args) if before is not None else None
            stack.append(span_id)
            start = now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            self.add(
                op, name, start, end, parent,
                counts(args, result, token) if counts is not None else None,
                span_id,
            )
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# -- what gets wrapped -------------------------------------------------------


def _ir_instructions(args, module, token):
    return {
        "ir_instructions": sum(
            len(block.instructions)
            for function in module.defined_functions()
            for block in function.blocks
        )
    }


def _cache_before(args):
    cache = args[0].cache
    return None if cache is None else (cache.hits, cache.misses)


def _engine_counts(queries):
    def counts(args, result, token):
        cache = args[0].cache
        hits = lookups = 0
        if token is not None:
            hits = cache.hits - token[0]
            lookups = hits + cache.misses - token[1]
        return {"queries": queries(args), "lru_hits": hits, "lru_lookups": lookups}

    return counts


def _search_counts(args, report, token):
    stats = report.stats
    return {
        "live": 1,
        "states_explored": report.states_explored,
        "states_seen": report.states_seen,
        "symmetry_hits": stats.symmetry_hits,
        "por_pruned": stats.por_pruned,
        "peak_frontier": stats.peak_frontier,
    }


def _store_get_counts(args, outcome, rejected_before):
    return {
        "hits": int(outcome is not None),
        "misses": int(outcome is None),
        "rejected": args[0].rejected - rejected_before,
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls for the modules already imported.

    A module that is not imported yet is not used by this process's
    workload, and importing it here would add its import time to the
    traced op.
    """
    import sys

    pipeline = sys.modules.get("repro.core.pipeline")
    if pipeline is not None:
        recorder.wrap(pipeline.PrivAnalyzer, "analyze", "pipeline")
        recorder.wrap(pipeline, "compile_source", "frontend", _ir_instructions)
        recorder.wrap(
            pipeline, "transform_module", "autopriv",
            lambda args, result, token: {"insertions": result.insertion_count},
        )
        recorder.wrap(
            pipeline, "instrument_module", "chronopriv",
            lambda args, result, token: {"blocks": result.blocks_instrumented},
        )
        recorder.wrap(pipeline, "verify_module", "chronopriv")
        recorder.wrap(
            pipeline.PrivAnalyzer, "run_dynamic", "vm",
            lambda args, result, token: {"instructions": result[0].total},
        )
    engine = sys.modules.get("repro.rosa.engine")
    if engine is not None:
        # QueryEngine binds ``check`` as its checker when constructed, so
        # this must run before any engine is built.
        recorder.wrap(engine, "check", "search", _search_counts)
        recorder.wrap(
            engine.QueryEngine, "run_queries", "engine",
            _engine_counts(lambda args: len(args[1])), _cache_before,
        )
        recorder.wrap(
            engine.QueryEngine, "check", "engine",
            _engine_counts(lambda args: 1), _cache_before,
        )
    store = sys.modules.get("repro.rosa.store")
    if store is not None:
        recorder.wrap(
            store.SharedVerdictStore, "get", "store.get", _store_get_counts,
            lambda args: args[0].rejected,
        )
        recorder.wrap(
            store.SharedVerdictStore, "put", "store.put",
            lambda args, published, token: {"published": int(bool(published))},
        )
    report = sys.modules.get("repro.core.report")
    if report is not None:
        recorder.wrap(report, "to_json", "report")
        recorder.wrap(report, "analysis_to_dict", "report")
