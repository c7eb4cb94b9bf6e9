"""Maude's ``search`` command over plain terms.

ROSA searches object configurations, but Maude's ``search`` works on any
term of any module.  This glue provides the same for
:class:`~repro.rewriting.rules.RewriteSystem`: breadth-first exploration
of rule rewrites (normalising with the module's equations at every step)
looking for a state that *matches a pattern* — with variables — under an
optional ``such that`` condition on the matched substitution.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.rewriting.rules import RewriteSystem
from repro.rewriting.search import SearchBudget, SearchResult, breadth_first_search
from repro.rewriting.terms import Substitution, Term, match


def search_terms(
    system: RewriteSystem,
    initial: Term,
    pattern: Term,
    condition: Optional[Callable[[Substitution], bool]] = None,
    budget: SearchBudget = SearchBudget(),
) -> SearchResult[Term]:
    """``search initial =>* pattern such that condition`` for ``system``.

    The initial term is normalised first (Maude reduces before searching);
    the witness path in the result lists the rule labels applied.
    """
    start = system.normal_form(initial)

    def goal(term: Term) -> bool:
        subst = match(pattern, term)
        if subst is None:
            return False
        return condition is None or condition(subst)

    return breadth_first_search(
        start,
        system.successors,
        goal,
        budget=budget,
    )


def matched_substitution(pattern: Term, result: SearchResult[Term]) -> Optional[Substitution]:
    """The bindings of the found state against the search pattern."""
    if result.state is None:
        return None
    return match(pattern, result.state)
