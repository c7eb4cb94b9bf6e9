"""Spread a process and its descendants over all CPUs, a few ms at a time.

Usage::

    python perfbench/spread.py PID PERIOD_MS

Every ``PERIOD_MS`` this moves every thread of ``PID`` and of its
descendants (but not itself) to the next CPU in turn, so each op spends
about equal shares of its time on every CPU.  On a small VM each
vCPU switches between a fast and a slow speed (about 1.7x apart) every
few seconds, independently of the other.  An op left on one vCPU runs at
that vCPU's speed, so the ops of a run split into a fast and a slow
cluster, and a median that falls between the clusters jumps from run to
run.  Spread ops see the mean speed of the vCPUs instead.

It stops when its standard input closes, after letting every thread run
on any CPU again, or when ``PID`` ends.
"""

import os
import select
import sys


def threads(pid: int) -> list:
    """Thread ids of ``pid`` and its descendants, this process excepted."""
    found, stack = [], [pid]
    while stack:
        process = stack.pop()
        if process == os.getpid():
            continue
        try:
            tids = os.listdir(f"/proc/{process}/task")
        except FileNotFoundError:
            continue  # it ended meanwhile
        for tid in tids:
            found.append(int(tid))
            try:
                with open(f"/proc/{process}/task/{tid}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
            except FileNotFoundError:
                pass
    return found


def move(tids, cpus) -> None:
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def main() -> int:
    pid, period = int(sys.argv[1]), float(sys.argv[2]) / 1000
    cpus = sorted(os.sched_getaffinity(0))
    tick = 0
    while os.path.exists(f"/proc/{pid}"):
        move(threads(pid), {cpus[tick % len(cpus)]})
        tick += 1
        readable, _, _ = select.select([sys.stdin], [], [], period)
        if readable:
            # End of input: the benchmark is done with it.
            move(threads(pid), set(cpus))
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
