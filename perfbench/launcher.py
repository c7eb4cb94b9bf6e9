"""Run one ``privanalyzer`` command in a child process under the span recorder.

Usage::

    python perfbench/launcher.py SPANS_OUT SPAWNED_NS OP -- ARGS...

``SPAWNED_NS`` is the parent's ``time.monotonic_ns()`` just before it
spawned this process, so ``cli.start`` spans spawn to the first
statement here; ``cli.exit`` is left open for the parent to close.  ``OP`` labels every span this process records; the
serve subprocess passes a placeholder, and the benchmark assigns its
request spans to ops by time.  The spans are written to ``SPANS_OUT``
when ``repro.cli.main`` returns.
"""

import time

STARTED = time.monotonic_ns()

import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_out, spawned, op = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: launcher.py SPANS_OUT SPAWNED_NS OP -- ARGS...")
    recorder = spans.Recorder(id_prefix="c", default_op=op)
    recorder.add(op, "cli.start", spawned, STARTED)
    with recorder.span("cli.import"):
        import repro.cli
    args = sys.argv[5:]
    with recorder.span("trace.install"):
        if args[:1] == ["serve"]:
            import repro.rosa.store  # noqa: F401 - serve imports it lazily
        spans.install(recorder)
    with recorder.span("cli.main"):
        code = repro.cli.main(args)
    # Interpreter shutdown: the parent ends this span when it sees the exit.
    recorder.add(op, "cli.exit", spans.now(), None)
    recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
