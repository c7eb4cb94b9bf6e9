"""The repository benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it twice for half the time each, untraced
and then traced, and reports the per-layer metrics from the traced half
plus the tracing overhead between the two.  Every op is checked against
a known answer; a wrong answer or a count that does not repeat exactly
is a failed op.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The lines before it are the same numbers for people.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

import known
import results
from workloads import WORKLOADS

ROOT = os.path.dirname(known.HERE)
END_TO_END = ("op_p50_ms", "op_tail_ms", "ops_per_s", "setup_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def show(title: str, metrics: dict, names) -> None:
    print(title)
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:<26} {value:>14.4f} {unit}")


def measure(workload, args) -> tuple:
    """(metrics for the JSON line, all phases) for one invocation."""
    if not args.trace:
        phase = workload.run(args.seconds, traced=False)
        results.check_items(phase)
        metrics = results.end_to_end(phase)
        show(
            f"{workload.name} seed {args.seed}: {metrics['op_samples'][0]} ops, "
            f"tail = p{metrics['op_tail_pct'][0]:.1f}",
            metrics, END_TO_END + ("fail_rate",),
        )
        return {name: metrics[name] for name in END_TO_END}, [phase]

    untraced = workload.run(args.seconds / 2, traced=False)
    traced = workload.run(args.seconds / 2, traced=True)
    if workload.root == "serve.request":
        traced.spans = results.assign_by_time(traced)
    per_op = results.layers(traced, workload.root, traced.spans)
    for phase in (untraced, traced):
        results.check_items(phase)
    results.check_phases(untraced, traced)
    results.check_span_counts(traced, per_op, workload.item_stable)
    metrics = results.per_layer(workload, untraced, traced, per_op)
    show(
        f"{workload.name} seed {args.seed}: traced layers over {len(traced.ops)} ops "
        f"(untraced {len(untraced.ops)})",
        metrics, sorted(metrics),
    )
    print("measured share of op time vs prediction")
    for label, share, low, high in results.shares(workload, traced, per_op):
        verdict = "holds" if low <= share <= high else "WRONG"
        print(f"  {label:<26} {100 * share:6.1f}%  predicted "
              f"{100 * low:.0f}-{100 * high:.0f}%  {verdict}")
    if metrics["attributed_pct"][0] < 90.0:
        print(f"  attribution below 90%: {metrics['attributed_pct'][0]:.1f}%")
    return (
        {name: metrics[name] for name in results.PER_LAYER_UNITS},
        [untraced, traced],
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the serve subprocess is shut down and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    print(
        f"python {platform.python_version()}, bytecode cache "
        f"{'off' if sys.dont_write_bytecode else 'on'}, {os.cpu_count()} CPUs"
    )
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
        metrics, phases = measure(workload, args)
    except known.KnownAnswerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    attempted = sum(len(phase.ops) for phase in phases)
    failures = [op.error for phase in phases for op in phase.ops if op.error]
    problems = [error for phase in phases for error in phase.errors]
    for why in (failures + problems)[:10]:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
