"""Known answers every benchmark op is checked against.

* An ``analyze`` result must match ``tests/golden/profiles/<p>.json`` in
  ``total_instructions`` and in every per-attack vulnerability window.
* A ``rosa`` request is one of the ``examples/queries`` files with the
  process's six uid/gid fields replaced by a seeded tuple.  Its verdict
  must match ``expected_rosa.json``, which ``make_expected.py`` computes
  with the unreduced search over the unindexed rule system, not with the
  engine path the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_ROSA = os.path.join(HERE, "expected_rosa.json")

#: Query file stem -> the values each uid/gid field may take.
TEMPLATES = {
    "figure2": (0, 10, 40, 41),
    "hardlink_attack": (0, 7, 1000, 1001),
}
FIELDS = ("euid", "ruid", "suid", "egid", "rgid", "sgid")
VARIANTS = 4 ** len(FIELDS)
LETTER = {"vulnerable": "V", "invulnerable": "I", "timeout": "T"}
_FIELD_RE = re.compile(r"\b(euid|ruid|suid|egid|rgid|sgid) : \d+")


class KnownAnswerError(RuntimeError):
    """The inputs the known answers need are missing or out of date."""


def template_path(root: str, name: str) -> str:
    return os.path.join(root, "examples", "queries", f"{name}.rosa")


def read_template(root: str, name: str) -> str:
    with open(template_path(root, name), "r", encoding="utf-8") as handle:
        return handle.read()


def variant_values(name: str, index: int) -> tuple:
    """The uid/gid tuple of variant ``index``: its base-4 digits, euid first."""
    alphabet = TEMPLATES[name]
    return tuple(
        alphabet[index // len(alphabet) ** (len(FIELDS) - 1 - k) % len(alphabet)]
        for k in range(len(FIELDS))
    )


def variant_text(template: str, values: tuple) -> str:
    by_field = dict(zip(FIELDS, values))
    return _FIELD_RE.sub(
        lambda match: f"{match.group(1)} : {by_field[match.group(1)]}", template
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class KnownAnswers:
    """Golden profiles plus the expected ``rosa`` verdicts, loaded once."""

    def __init__(self, root: str, programs=(), rosa: bool = False) -> None:
        self.golden = {}
        for program in programs:
            path = os.path.join(root, "tests", "golden", "profiles", f"{program}.json")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    profile = json.load(handle)
            except OSError as error:
                raise KnownAnswerError(f"no golden profile for {program}: {error}")
            self.golden[program] = (profile["total_instructions"], profile["windows"])
        self.templates = {}
        self.verdicts = {}
        if rosa:
            self._load_rosa(root)

    def _load_rosa(self, root: str) -> None:
        with open(EXPECTED_ROSA, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        for name in TEMPLATES:
            try:
                text = read_template(root, name)
            except OSError as error:
                raise KnownAnswerError(f"no query file for {name}: {error}")
            entry = expected["queries"][name]
            if entry["sha256"] != sha256(text) or tuple(entry["alphabet"]) != TEMPLATES[name]:
                raise KnownAnswerError(
                    f"expected_rosa.json is stale for {name}; "
                    "rerun perfbench/make_expected.py"
                )
            self.templates[name] = text
            self.verdicts[name] = entry["verdicts"]

    def check_analysis(self, program: str, result: dict):
        """``None`` if ``result`` (an ``analysis_to_dict``) is right, else why."""
        instructions, windows = self.golden[program]
        if result.get("total_instructions") != instructions:
            return (
                f"{program}: {result.get('total_instructions')} instructions, "
                f"expected {instructions}"
            )
        if result.get("windows") != windows:
            return f"{program}: windows {result.get('windows')}, expected {windows}"
        return None

    def rosa_text(self, name: str, index: int) -> str:
        return variant_text(self.templates[name], variant_values(name, index))

    def check_rosa(self, name: str, index: int, verdict: str):
        expected = self.verdicts[name][index]
        if LETTER.get(verdict) != expected:
            return f"{name}#{index}: {verdict}, expected {expected}"
        return None
