"""Test-only references: the cached lasso search and the paper's counter walk.

The lasso search used to cache every window's continuations whole, as a
tuple per window for the rest of the solve, and to search the chains from
each initial window in a loop of its own; it now reads each window's
continuations as a stream, and keeps the stream of initial windows at the
bottom of its one stack.  CachedSearch keeps the cached search and the
per-start loop (its lasso_chain, which CounterSearch inherits), and
cached_sat_set runs it, so differential tests can compare the two.

The paper stops a window chain by a pigeonhole count: a chain of
counter_bound(anchor) windows with satisfiable heads must repeat a window.
The counter walk keeps that rule, counted over the windows a chain can
meet: each chain's budget, nested chains' included, is one more than the
number of windows reachable from its start (CounterSearch.chain_budget),
never more than counter_bound, so the walk ends on anchors whose
counter_bound could never be walked.  It walks window chains depth first
and accepts once budget many windows line up; it remembers each failed
window under the smallest budget it failed at, and folds an accepted chain
at its first repeated window.  The solver accepts on the first repeated window
instead (a lasso); the differential tests compare the two through
reference_sat_set, and chain by chain through lasso_window_chain and
reference_window_chain.  The counter walk re-enters windows while it walks
whole budgets, so it reads continuations through CachedSearch's cache.
"""

from typing import Iterable, Iterator, Optional

import densemodal.windows as _windows
from densemodal import SAT, UNSAT, Formula, SatResult, set_degree, sf
from densemodal.errors import InvariantError
from densemodal.kdeab import ChainWitness, Trace, _Search, _verified_witness


def counter_bound(members: Iterable[Formula]) -> int:
    """The paper's chain budget for an anchor: 2**(M*(d+1)).

    M counts sf(anchor) and d is the anchor's degree.  Each of a
    window's d+1 parts is a clash-free subset of that universe, and the
    universe holds the anchor's negated a-box beside its box, so there are
    fewer than 2**M choices per part: the bound exceeds the number of
    distinct windows, and no repetition-free chain reaches it.
    """
    members = frozenset(members)
    m = len(sf(members))
    return 2 ** (m * (set_degree(members) + 1))


class CachedSearch(_Search):
    """The solver's search with each window's continuations cached whole,
    and the chains from each initial window searched one start at a time."""

    def __init__(self, memo: bool = True):
        super().__init__(memo)
        self._cont_cache: dict[tuple, tuple] = {}

    def continuations_of(self, boxa, parts) -> tuple:
        key = (boxa, parts)
        got = self._cont_cache.get(key)
        if got is None:
            got = tuple(_windows.continuations(boxa, parts, self.tables))
            self._cont_cache[key] = got
        return got

    def lasso_chain(self, boxa, starts, depth):
        """The former per-start loop: each initial window is counted, then
        its chains are searched before the next is drawn."""
        for start in starts:
            self.stats["windows"] += 1
            chain = self.start_chain(boxa, start, depth)
            if chain is not None:
                return chain
        return None

    def start_chain(self, boxa, start, depth):
        """The former lasso search from one start, over cached tuples."""
        first = self.sat_members(start[0], depth + 1)
        if first is None:
            return None
        wins = [start]
        heads = [first]
        iters = [iter(self.continuations_of(boxa, start))]
        seen = {start: 0}
        while wins:
            nxt = next(iters[-1], None)
            if nxt is None:
                del seen[wins[-1]]
                wins.pop()
                heads.pop()
                iters.pop()
                continue
            self.stats["windows"] += 1
            node = self.sat_members(nxt[0], depth + 1)
            if node is None:
                continue
            if nxt in seen:
                return ChainWitness(list(heads), seen[nxt])
            seen[nxt] = len(wins)
            wins.append(nxt)
            heads.append(node)
            iters.append(iter(self.continuations_of(boxa, nxt)))
        return None


class CounterSearch(CachedSearch):
    """The solver's search with every window chain run by the counter walk."""

    def start_chain(self, boxa, start, depth):
        return self.counter_chain(boxa, start, self.chain_budget(boxa, start), depth)

    def chain_budget(self, boxa, start) -> int:
        """One more than the number of windows reachable from start.

        Every window of a chain from start is reachable from it, so a
        chain this long repeats a window: the paper's pigeonhole rule,
        counted over the windows the chain can meet.  The count is at most
        counter_bound(anchor), which also counts windows no chain from
        start reaches.
        """
        seen = {start}
        todo = [start]
        while todo:
            for nxt in self.continuations_of(boxa, todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return len(seen) + 1

    def counter_chain(
        self, boxa, start, budget: int, depth: int, fold: bool = True
    ) -> Optional[ChainWitness]:
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
            prev = min_fail.get(window)
            if prev is not None and prev <= r:
                return False
            node = self.sat_members(window[0], depth + 1)
            if node is None:
                note_fail(window, 1)
                return False
            wins.append(window)
            heads.append(node)
            iters.append(iter(self.continuations_of(boxa, window)))
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
                note_fail(wins[-1], owed[-1])
                wins.pop()
                heads.pop()
                iters.pop()
                owed.pop()
                continue
            self.stats["windows"] += 1
            if enter(nxt, owed[-1] - 1):
                if owed[-1] == 1:
                    return accept()
        return None


def _loop_of(wins: list, heads: list[Trace]) -> ChainWitness:
    """Fold an accepted chain at its first repeated window."""
    seen: dict[tuple, int] = {}
    for i, window in enumerate(wins):
        j = seen.get(window)
        if j is not None:
            return ChainWitness(heads[:i], j)
        seen[window] = i
    raise InvariantError(
        "accepted counter chain contains no repeated window; "
        "the budget was below the true window count"
    )


def _solve(search: _Search, formulas) -> SatResult:
    """sat_set's loop, run by the given search."""
    targets = frozenset(formulas)
    trace = search.first(targets, 0)
    if trace is None:
        return SatResult(UNSAT, None, search.stats)
    return SatResult(SAT, _verified_witness(trace, targets), search.stats)


def cached_sat_set(formulas, memo: bool = True) -> SatResult:
    """sat_set with every window's continuations cached whole."""
    return _solve(CachedSearch(memo), formulas)


def reference_sat_set(formulas, memo: bool = True) -> SatResult:
    """sat_set with every window chain run by the counter walk."""
    return _solve(CounterSearch(memo), formulas)


def lasso_window_chain(boxa, window, memo: bool = True) -> bool:
    """Whether the solver's lasso search accepts a chain from window, over
    an anchor with a-box bodies boxa: a repeated window along a chain of
    windows with satisfiable heads.  The search reads a one-window stream
    of starts."""
    return _Search(memo).lasso_chain(boxa, iter((window,)), 0) is not None


def reference_window_chain(boxa, window, budget: Optional[int], memo: bool = True) -> bool:
    """Whether the counter walk accepts a chain of budget many windows from
    window; budget None means CounterSearch.chain_budget of window."""
    search = CounterSearch(memo)
    if budget is None:
        budget = search.chain_budget(boxa, window)
    return search.counter_chain(boxa, window, budget, 0, fold=False) is not None
