"""A bounded term/object rewriting engine — our substitute for Maude 2.7.

The paper implements ROSA in Maude with the Full-Maude object extension
(§VI).  This package reimplements the fragment of Maude that ROSA uses:

* :mod:`repro.rewriting.terms` — first-order terms, variables, matching;
* :mod:`repro.rewriting.rules` — equations (normalisation) and rules,
  bundled into :class:`RewriteSystem` modules;
* :mod:`repro.rewriting.objects` — Object Maude configurations: multisets
  of objects and messages with canonical (associative-commutative) keys;
* :mod:`repro.rewriting.search` — the bounded breadth-first ``search``
  command with state/depth/time budgets and a tri-state outcome;
* :mod:`repro.rewriting.reduction` — footprints and counters for
  partial-order reduction.
"""

from repro.rewriting.terms import (
    Atom,
    Compound,
    Substitution,
    Term,
    Var,
    match,
    op,
    replace_at,
    subterms,
    term,
)
from repro.rewriting.rules import (
    Equation,
    NormalizationError,
    RewriteSystem,
    TermRule,
    normalize,
    rewrite_once,
)
from repro.rewriting.objects import (
    Configuration,
    MessageRule,
    Msg,
    Obj,
    ObjectRule,
    ObjectSystem,
)
from repro.rewriting.reduction import Footprint, ReductionStats, footprint
from repro.rewriting.search import (
    MAX_RETAINED_SAMPLES,
    PROGRESS_INTERVAL,
    ProgressSample,
    SearchBudget,
    SearchOutcome,
    SearchResult,
    SearchStats,
    breadth_first_search,
)
from repro.rewriting.termsearch import matched_substitution, search_terms

__all__ = [
    "Atom",
    "Compound",
    "Configuration",
    "Equation",
    "Footprint",
    "MAX_RETAINED_SAMPLES",
    "MessageRule",
    "Msg",
    "NormalizationError",
    "Obj",
    "ObjectRule",
    "ObjectSystem",
    "PROGRESS_INTERVAL",
    "ProgressSample",
    "ReductionStats",
    "RewriteSystem",
    "SearchBudget",
    "SearchOutcome",
    "SearchResult",
    "SearchStats",
    "Substitution",
    "Term",
    "TermRule",
    "Var",
    "breadth_first_search",
    "footprint",
    "match",
    "matched_substitution",
    "search_terms",
    "normalize",
    "op",
    "replace_at",
    "rewrite_once",
    "subterms",
    "term",
]
