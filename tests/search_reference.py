"""Test-only reference: the kdeab search with whole families and one memo.

The solver's search used to build each saturation family whole, as a
tuple, before trying its first member, and to memoize solved saturations
by their whole member sets only, so that every propositional variant of
one modal part was solved again.  It now draws each family as a stream
and keys its memo on modal parts.  TupleFamilySearch keeps the
former search (its first builds each family whole), and
tuple_family_sat_set runs it, so differential tests can check that the
two give the same verdicts and byte-identical witnesses.  Its window
chains run the solver's lasso_chain; tests/counter_reference.py keeps the
former chain loop.
Its counters keep their former meanings: saturations sums the sizes of
the families the search built.
"""

from typing import Optional

import densemodal.windows as _windows
from densemodal import Box, Formula, MOD_A, MOD_B, Not, SatResult, box_inverse, set_degree, sort_key
from densemodal.kdeab import Trace, _Search
from densemodal.saturation import saturations
from counter_reference import _solve


def _diamond_bodies(members: frozenset[Formula], modality: str) -> list[Formula]:
    bodies = [
        f.child.child
        for f in members
        if isinstance(f, Not)
        and isinstance(f.child, Box)
        and f.child.modality == modality
    ]
    return sorted(bodies, key=sort_key)


class TupleFamilySearch(_Search):
    """The solver's search with tuple families and a member-set memo only."""

    def __init__(self, memo: bool = True):
        super().__init__(memo)
        self.memo: dict[frozenset[Formula], Optional[Trace]] = {}

    def first(self, seed: frozenset[Formula], depth: int) -> Optional[Trace]:
        """The former loop: build the seed's family whole, count all of it,
        then try its members in order."""
        fam = tuple(saturations(seed, self.tables))
        self.stats["saturations"] += len(fam)
        for cand in fam:
            trace = self.sat_members(cand, depth)
            if trace is not None:
                return trace
        return None

    def sat_members(self, members: frozenset[Formula], depth: int) -> Optional[Trace]:
        if self.memo_enabled and members in self.memo:
            return self.memo[members]
        if depth > self.stats["max_depth"]:
            self.stats["max_depth"] = depth
        node: Optional[Trace] = Trace(members)
        for body in _diamond_bodies(members, MOD_B):
            child = self.first(frozenset({Not(body)}) | box_inverse(members, MOD_B), depth + 1)
            if child is None:
                node = None
                break
            node.b_children.append(child)
        if node is not None:
            boxa = box_inverse(members, MOD_A)
            for body in _diamond_bodies(members, MOD_A):
                starts = _windows.initial_windows(boxa, set_degree(members), Not(body), self.tables)
                chain = self.lasso_chain(boxa, starts, depth)
                if chain is None:
                    node = None
                    break
                node.a_chains.append(chain)
        if self.memo_enabled:
            self.memo[members] = node
        return node


def tuple_family_sat_set(formulas, memo: bool = True) -> SatResult:
    """sat_set with tuple families and a memo keyed on member sets only."""
    return _solve(TupleFamilySearch(memo), formulas)
