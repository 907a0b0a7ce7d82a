"""Classically saturated, clash-free extensions of a finite formula set.

A saturation of a seed is exactly what an open, finished branch of a
classical tableau started on the seed contains: the seed plus everything a
run of the branch rules added.  The rules are

  * phi & psi      adds phi and psi,
  * ~~phi          adds phi,
  * ~(phi & psi)   adds ~phi or ~psi, but only while neither is present.

A finished branch has no applicable rule left, does not contain falsum and
never contains a formula together with its negation.  Boxes are opaque to
all three rules, so a saturation of a seed has the seed's modal degree.

The rules are written once, in `_pending`, and explored once, by
`_branches`: a depth-first search over the graph of intermediate sets,
which covers every application order.  Enumeration reads every finished
branch of that search; the membership test runs it restricted to the
candidate and accepts when it finishes on the candidate.  The disjunction
rule is blocked once one of its two targets is present, so branches never
pad themselves with underived material.  An inconsistent seed has no
saturations at all; callers treat the empty stream as the failed branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .formula import And, FALSUM, Falsum, Formula, Not, csf, set_degree, sort_key


@dataclass(frozen=True)
class Saturation:
    """A saturated, clash-free set together with the seed it extends."""

    members: frozenset[Formula]
    seed: frozenset[Formula]

    @property
    def degree(self) -> int:
        return set_degree(self.members)


def _clashes(members: frozenset[Formula]) -> bool:
    if FALSUM in members:
        return True
    return any(isinstance(f, Not) and f.child in members for f in members)


def _conflicts(members: frozenset[Formula], new: Formula) -> bool:
    if isinstance(new, Falsum):
        return True
    if isinstance(new, Not) and new.child in members:
        return True
    return Not(new) in members


def _pending(members: frozenset[Formula]) -> list[Formula]:
    """Formulas a rule could still add, in deterministic order."""
    moves: list[Formula] = []
    seen: set[Formula] = set()

    def push(f: Formula) -> None:
        if f not in members and f not in seen:
            seen.add(f)
            moves.append(f)

    for f in sorted(members, key=sort_key):
        if isinstance(f, And):
            push(f.left)
            push(f.right)
        elif isinstance(f, Not):
            c = f.child
            if isinstance(c, Not):
                push(c.child)
            elif isinstance(c, And):
                nl, nr = Not(c.left), Not(c.right)
                if nl not in members and nr not in members:
                    push(nl)
                    push(nr)
    return moves


def _branches(
    seed: frozenset[Formula], within: Optional[frozenset[Formula]] = None
) -> Iterator[frozenset[Formula]]:
    """Depth-first over the graph of partial branches; yields finished ones.

    A finished branch is a set no rule applies to.  With within set, only
    moves that add a member of within are taken.  Order matters: a
    disjunction rule is blocked once fulfilled, so an element may be
    addable in one run order but not another.
    """
    visited: set[frozenset[Formula]] = set()
    stack: list[frozenset[Formula]] = [seed]
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        moves = _pending(current)
        if not moves:
            yield current
            continue
        successors = []
        for new in moves:
            if (within is None or new in within) and not _conflicts(current, new):
                successors.append(current | {new})
        stack.extend(reversed(successors))


def saturations(seed: Iterable[Formula]) -> Iterator[Saturation]:
    """Enumerate every saturation of the seed, each exactly once.

    The yield order is deterministic.  Yields nothing when the seed is
    classically inconsistent.
    """
    seed = frozenset(seed)
    if _clashes(seed):
        return
    for members in _branches(seed):
        yield Saturation(members, seed)


def saturation_family(seed: frozenset[Formula]) -> tuple[Saturation, ...]:
    """Every saturation of the seed, in the order saturations() yields them.

    Nothing is cached across calls; the kdeab search keeps its own
    per-solve memo of satisfiable member sets and window continuations.
    """
    return tuple(saturations(seed))


def is_saturation_of(candidate: Iterable[Formula], seed: Iterable[Formula]) -> bool:
    """Decide whether candidate is a saturation of seed.

    Checks the containment bounds seed <= candidate <= csf(seed), that
    candidate is clash-free, and that the branch search from seed,
    restricted to candidate's members, finishes on it.  That search only
    finishes on sets no rule applies to, so closedness needs no test of its
    own; a clashing seed would finish on itself, hence the clash test.
    """
    candidate = frozenset(candidate)
    seed = frozenset(seed)
    if not seed <= candidate <= csf(seed):
        return False
    if _clashes(candidate):
        return False
    return candidate in _branches(seed, within=candidate)
