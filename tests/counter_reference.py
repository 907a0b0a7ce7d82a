"""Test-only reference: counter mode's former window-chain walk.

Counter mode used to run a search of its own.  It walked window chains
depth first and accepted once budget many windows with satisfiable heads
lined up; it remembered each failed window under the smallest budget it
failed at, and folded an accepted chain at its first repeated window.
Counter mode now reads the lasso search instead.  The differential tests
compare the two through the functions below.
"""

from typing import Iterator, Optional

from densemodal import COUNTER, SAT, UNSAT, BoundPolicy, SatResult, counter_bound
from densemodal.errors import InvariantError
from densemodal.kdeab import ChainWitness, Trace, _Search, _verified_witness


class CounterSearch(_Search):
    """The solver's search with every window chain run by the counter walk."""

    def lasso_chain(self, start, depth):
        return self.counter_chain(start, counter_bound(start.anchor.members), depth), 0

    def counter_chain(self, start, budget: int, depth: int, fold: bool = True) -> Optional[ChainWitness]:
        """Accept once budget many windows with satisfiable heads line up.

        A chain that fails with r steps still owed also fails with more
        owed, so failures are memoized by window under the smallest budget
        they failed at; this prunes rewalks without changing the accepted
        language.
        """
        if budget <= 0:
            return ChainWitness([], 0)
        min_fail: dict[tuple, int] = {}
        wins: list = []
        heads: list[Trace] = []
        iters: list[Iterator] = []
        owed: list[int] = []

        def note_fail(parts: tuple, r: int) -> None:
            prev = min_fail.get(parts)
            if prev is None or r < prev:
                min_fail[parts] = r

        def enter(window, r: int) -> bool:
            prev = min_fail.get(window.parts)
            if prev is not None and prev <= r:
                return False
            node = self.sat_members(window.head, depth + 1)
            if node is None:
                note_fail(window.parts, 1)
                return False
            wins.append(window)
            heads.append(node)
            iters.append(iter(self.continuations_of(window)))
            owed.append(r)
            return True

        def accept() -> ChainWitness:
            return _loop_of(wins, heads) if fold else ChainWitness([], 0)

        if not enter(start, budget):
            return None
        if budget == 1:
            return accept()
        while wins:
            nxt = next(iters[-1], None)
            if nxt is None:
                note_fail(wins[-1].parts, owed[-1])
                wins.pop()
                heads.pop()
                iters.pop()
                owed.pop()
                continue
            self.stats.windows += 1
            if enter(nxt, owed[-1] - 1):
                if owed[-1] == 1:
                    return accept()
        return None


def _loop_of(wins: list, heads: list[Trace]) -> ChainWitness:
    """Fold an accepted chain at its first repeated window."""
    seen: dict[tuple, int] = {}
    for i, window in enumerate(wins):
        j = seen.get(window.parts)
        if j is not None:
            return ChainWitness(heads[:i], j)
        seen[window.parts] = i
    raise InvariantError(
        "accepted counter chain contains no repeated window; "
        "the budget was below the true window count"
    )


def reference_sat_set(formulas, memo: bool = True) -> SatResult:
    """sat_set in counter mode, with chains run by the counter walk."""
    targets = frozenset(formulas)
    search = CounterSearch(BoundPolicy(COUNTER), memo)
    for cand in search.family(targets):
        trace = search.sat_members(cand.members, 0)
        if trace is not None:
            return SatResult(SAT, _verified_witness(trace, targets), search.stats.as_dict())
    return SatResult(UNSAT, None, search.stats.as_dict())


def reference_window_chain(window, budget: Optional[int], memo: bool = True) -> bool:
    """sat_window_chain in counter mode; budget None means counter_bound."""
    if budget is None:
        budget = counter_bound(window.anchor.members)
    search = CounterSearch(BoundPolicy(COUNTER), memo)
    return search.counter_chain(window, budget, 0, fold=False) is not None
