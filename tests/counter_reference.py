"""Test-only references: the cached lasso search and the former counter walk.

The lasso search used to cache every window's continuations whole, as a
tuple per window for the rest of the solve; it now reads each window's
continuations as a stream.  CachedSearch keeps the cached search, and
cached_sat_set runs it, so differential tests can compare the two.

Counter mode used to run a search of its own.  It walked window chains
depth first and accepted once budget many windows with satisfiable heads
lined up; it remembered each failed window under the smallest budget it
failed at, and folded an accepted chain at its first repeated window.
Counter mode now reads the lasso search instead.  The differential tests
compare the two through reference_sat_set and reference_window_chain.
The counter walk re-enters windows while it walks whole budgets, so it
reads continuations through CachedSearch's cache.
"""

from typing import Iterator, Optional

import densemodal.windows as _windows
from densemodal import COUNTER, SAT, UNSAT, BoundPolicy, SatResult, counter_bound
from densemodal.errors import InvariantError
from densemodal.kdeab import ChainWitness, Trace, _Search, _verified_witness


class CachedSearch(_Search):
    """The solver's search with each window's continuations cached whole."""

    def __init__(self, policy: BoundPolicy, memo: bool = True):
        super().__init__(policy, memo)
        self._cont_cache: dict[tuple, tuple] = {}

    def continuations_of(self, window: _windows.Window) -> tuple:
        key = (window.anchor.members, window.parts)
        got = self._cont_cache.get(key)
        if got is None:
            got = tuple(_windows.continuations(window, self.tables))
            self._cont_cache[key] = got
        return got

    def lasso_chain(self, start, depth):
        """The former lasso search: _Search.lasso_chain over cached tuples."""
        first = self.sat_members(start.head, depth + 1)
        if first is None:
            return None, 0
        longest = 1
        wins = [start]
        heads = [first]
        iters = [iter(self.continuations_of(start))]
        seen = {start.parts: 0}
        while wins:
            nxt = next(iters[-1], None)
            if nxt is None:
                del seen[wins[-1].parts]
                wins.pop()
                heads.pop()
                iters.pop()
                continue
            self.stats.windows += 1
            node = self.sat_members(nxt.head, depth + 1)
            if node is None:
                continue
            if nxt.parts in seen:
                return ChainWitness(list(heads), seen[nxt.parts]), longest
            seen[nxt.parts] = len(wins)
            wins.append(nxt)
            heads.append(node)
            iters.append(iter(self.continuations_of(nxt)))
            longest = max(longest, len(wins))
        return None, longest


class CounterSearch(CachedSearch):
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


def _solve(search: _Search, formulas) -> SatResult:
    """sat_set's loop, run by the given search."""
    targets = frozenset(formulas)
    for cand in search.family(targets):
        trace = search.sat_members(cand.members, 0)
        if trace is not None:
            return SatResult(SAT, _verified_witness(trace, targets), search.stats.as_dict())
    return SatResult(UNSAT, None, search.stats.as_dict())


def cached_sat_set(formulas, policy: Optional[BoundPolicy] = None, memo: bool = True) -> SatResult:
    """sat_set with every window's continuations cached whole."""
    return _solve(CachedSearch(policy or BoundPolicy(), memo), formulas)


def reference_sat_set(formulas, memo: bool = True) -> SatResult:
    """sat_set in counter mode, with chains run by the counter walk."""
    return _solve(CounterSearch(BoundPolicy(COUNTER), memo), formulas)


def reference_window_chain(window, budget: Optional[int], memo: bool = True) -> bool:
    """sat_window_chain in counter mode; budget None means counter_bound."""
    if budget is None:
        budget = counter_bound(window.anchor.members)
    search = CounterSearch(BoundPolicy(COUNTER), memo)
    return search.counter_chain(window, budget, 0, fold=False) is not None
