"""Per-function and per-intrinsic cost attribution for the IR interpreter.

:class:`ProfilingInterpreter` is a drop-in :class:`~repro.vm.Interpreter`
subclass that times the compiled core as production runs it, at the
call boundary, against an attached :class:`~repro.telemetry.Profiler`:

``("vm", "fn:<name>")``
    Self time of one defined function's body: its compiled blocks,
    ChronoPriv's per-block counting (the recorder's direct
    ``vm.chrono_count`` increment, part of every block) and the call
    overhead, but not its callees nor the intrinsics it calls.
``("vm", "intrinsic:<name>")``
    Self time of one intrinsic (syscall wrappers, the AutoPriv runtime,
    libc-ish helpers).

Exclusive timing uses a nested-time ledger: each function and intrinsic
records its total wall time into ``self._nested`` on exit, and the
caller subtracts the delta from its own window.  A frame *sets* the
ledger to its start value plus its own wall (rather than adding), so
doubly-nested work is never subtracted twice.

Profiling stays opt-in: with no profiler attached (or a disabled one),
both overrides defer to the stock paths.  The pipeline installs this
class only when a live profiler is present and no custom interpreter
class overrides the stock one; it executes the same compiled code, so
verdicts, instruction counts and exposure tables are bit-identical
either way.
"""

from __future__ import annotations

from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.vm.interpreter import Interpreter


class ProfilingInterpreter(Interpreter):
    """An interpreter that attributes wall time per function and intrinsic."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Attach after construction (``vm.profiler = profiler``); the
        #: constructor signature must stay interchangeable with the stock
        #: interpreter's (``spawn_wait`` children are built positionally).
        self.profiler: Profiler = NULL_PROFILER
        #: Wall seconds consumed by nested calls, used to make
        #: per-function times exclusive (see module docstring).
        self._nested = 0.0

    def attach(self, profiler: Profiler) -> "ProfilingInterpreter":
        """Attach ``profiler`` here and to every future spawned child."""
        self.profiler = profiler
        self.child_observers.append(
            lambda child: child.attach(profiler)
            if isinstance(child, ProfilingInterpreter)
            else None
        )
        return self

    def call_function(self, function, args):
        if function.is_declaration or not self.profiler.enabled:
            # Declarations are timed by _call_intrinsic.
            return super().call_function(function, args)
        return self._timed("fn:" + function.name, super().call_function, function, args)

    def _call_intrinsic(self, name, args):
        if not self.profiler.enabled:
            return super()._call_intrinsic(name, args)
        return self._timed("intrinsic:" + name, super()._call_intrinsic, name, args)

    def _timed(self, frame: str, call, target, args):
        """Run ``call(target, args)``, accounting its exclusive time."""
        profiler = self.profiler
        clock = profiler.clock
        nested_at_entry = self._nested
        start = clock()
        try:
            return call(target, args)
        finally:
            elapsed = clock() - start
            self_time = elapsed - (self._nested - nested_at_entry)
            profiler.account(("vm", frame), self_time if self_time > 0.0 else 0.0)
            # Replace (not add to) the ledger: nested work inside this
            # call is subsumed by its own wall time.
            self._nested = nested_at_entry + elapsed
