"""Write ``expected_rosa.json``: the verdict of every ``rosa`` request variant.

Run from the repository root::

    python3 perfbench/make_expected.py

Each verdict comes from the baseline search: the unindexed UNIX rule
system, no state-space reduction, no engine, cache or store (the
``rosa_baseline`` path of ``benchmarks/perf_snapshot.py``).  The file
records each query file's sha256, so the benchmark refuses to run
against edited query files until this is rerun.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import known

ROOT = os.path.dirname(known.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.rewriting import ObjectSystem, SearchBudget  # noqa: E402
from repro.rosa import check  # noqa: E402
from repro.rosa.dsl import parse_query  # noqa: E402
from repro.rosa.rules import unix_rules  # noqa: E402

#: The budget ``ServeClient.rosa`` sends by default.
BUDGET = SearchBudget(max_states=200_000, max_seconds=60.0)


def main() -> int:
    brute = ObjectSystem("UNIX", unix_rules(), indexed=False)
    queries = {}
    for name in known.TEMPLATES:
        template = known.read_template(ROOT, name)
        letters = []
        for index in range(known.VARIANTS):
            text = known.variant_text(template, known.variant_values(name, index))
            query = parse_query(text, name=name)
            report = check(dataclasses.replace(query, system=brute), BUDGET, reduction=False)
            letters.append(known.LETTER[report.verdict.value])
        queries[name] = {
            "alphabet": list(known.TEMPLATES[name]),
            "sha256": known.sha256(template),
            "verdicts": "".join(letters),
        }
        print(f"{name}: {letters.count('V')} vulnerable, "
              f"{letters.count('I')} invulnerable, {letters.count('T')} timeout",
              file=sys.stderr)
    expected = {
        "schema": 1,
        "fields": list(known.FIELDS),
        "budget": {"max_states": BUDGET.max_states, "max_seconds": BUDGET.max_seconds},
        "queries": queries,
    }
    with open(known.EXPECTED_ROSA, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
