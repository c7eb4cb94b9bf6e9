"""Show that the benchmark's known-answer check catches a real defect.

Run from the repository root::

    python3 perfbench/selftest.py

``PrivAnalyzer().analyze`` run twice on the *same* ``ProgramSpec`` object
gives a different second result: thttpd drops from 81,164 to 9,260
instructions and sshd from 106,357 to 39.  The likely cause is that
``PrivAnalyzer.run_dynamic`` does ``vm.env.update(spec.env)``, so the VM
shares, and consumes, the spec's mutable ``connections`` and
``incoming`` lists.  The workloads build a fresh spec per op, as every
production entry point does; this self-test reuses one and exits 0 only
if the known-answer check passes the first run and flags the second.
Once the defect is fixed in ``src/``, it exits 1: replace it with
another defect the check must catch.
"""

from __future__ import annotations

import os
import sys

import known

ROOT = os.path.dirname(known.HERE)
PROGRAMS = ("thttpd", "sshd")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.pipeline import PrivAnalyzer
    from repro.core.report import analysis_to_dict
    from repro.programs import spec_by_name

    answers = known.KnownAnswers(ROOT, PROGRAMS)
    caught = True
    for program in PROGRAMS:
        spec = spec_by_name(program)
        first, second = (
            answers.check_analysis(program, analysis_to_dict(PrivAnalyzer().analyze(spec)))
            for _ in range(2)
        )
        print(f"{program} first run: {first or 'matches the golden profile'}")
        print(f"{program} same spec again: {second or 'matches the golden profile'}")
        caught = caught and first is None and second is not None
    print("known-answer check " + ("flags the reused spec" if caught else "MISSED the defect"))
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
