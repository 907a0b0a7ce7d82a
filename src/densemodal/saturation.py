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

Every set the rules reach lies in the seed's classical closure csf(seed),
and so does every formula a rule adds or a clash test asks for.  The rules
and clashes are therefore written once, in `_table`, which lists the
closure in sort_key order with each member's rule and clashes, and read by
`_pending` and `_conflicts` at every visited set.  It is built once per
seed per solve: a kdeab solve hands one `Tables` dict to every family and
membership test it asks for, and a call without one builds the seed's
table for that call alone (`saturation_test` keeps it for every candidate
tested against one seed).  `_branches` explores them: a depth-first search
over the graph of intermediate sets.  Where the first rule that applies is
isolated, so that taking its moves before any other keeps every run to a
finished branch a run, the search takes that rule's moves alone; elsewhere
it takes every move, in every application order.  Every finished branch
can be reached by a run that starts with an isolated rule's move, so
skipping the other moves there loses no branch and changes no yield order;
it only spares the search the interleavings of rules that do not affect
each other, which grow exponentially with their number (`_branches` gives
the argument).  It first tests the seed against the same clash table: a
clashing seed ends the search at once, and from a clash-free seed no move
adds a clash, so no other clash test is needed.  Enumeration reads every
finished branch of that search; the membership test runs it restricted to
the candidate and accepts when it finishes on the candidate.  The
disjunction rule is blocked once one of its two targets is present, so
branches never pad themselves with underived material.  An inconsistent
seed has no saturations at all; callers treat the empty stream as the
failed branch.

A saturation is its member set, a frozenset of formulas.  A seed's family
is the stream `saturations` returns: each finished branch is drawn when
the caller asks for the next one.  `saturation_family` is the same family
as a sized view: iterating it draws a fresh stream, and only `len` reads
the family whole.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .formula import And, Falsum, Formula, Not, csf, sort_key


# A rule: the formula it fires on, what it adds, and whether any one added
# formula being present already blocks it (the disjunction rule).
_Rule = tuple[Formula, tuple[Formula, ...], bool]
# The formulas each closure formula clashes with, falsum aside.
_Clash = dict[Formula, tuple[Formula, ...]]
# The first move of an isolated rule, mapped to that rule's moves.
_Isolated = dict[Formula, tuple[Formula, ...]]
_Table = tuple[list[_Rule], _Clash, _Isolated]
# Seeds mapped to their closure and table.  One solve keeps one such dict
# and hands it to every family and membership test it asks for, so that
# each seed's table is built once per solve; nothing outlives the solve.
Tables = dict[frozenset[Formula], tuple[frozenset[Formula], _Table]]


def _table(seed: frozenset[Formula], closure: frozenset[Formula]) -> _Table:
    """The closure's rules and clashes, and the seed's isolated rules.

    The rules are those of the closure's members, in sort_key order.

    A formula clashes with its child if it is a negation and with its
    negation if that lies in the closure; falsum clashes with everything
    (`_conflicts`).  The closure holds ~phi and ~psi for each ~(phi & psi)
    in it, so the table builds no formula.

    A formula is live if it is in the seed or a rule whose premise is live
    adds it; every set the search reaches holds live formulas only.  A
    rule is isolated when taking its moves first keeps every run to a
    finished branch a run (see `_branches`):
      * a conclusion g of a live conjunction or double negation, if no
        live disjunction rule targets g: g maps to (g,);
      * a live ~(phi & psi) whose two targets are distinct and added by
        no other live rule: its first target maps to both.
    Neither condition asks about clashes or falsum: a finished branch
    holds the isolated move's formula and is clash-free, so no other move
    of a run to it clashes with that formula.  A closure with no rule has
    no isolated rule, and the liveness pass is skipped.
    """
    negation = {f.child: f for f in closure if isinstance(f, Not)}
    rules: list[_Rule] = []
    clash: _Clash = {}
    for f in sorted(closure, key=sort_key):
        partners = (f.child,) if isinstance(f, Not) else ()
        clash[f] = partners + ((negation[f],) if f in negation else ())
        if isinstance(f, And):
            rules.append((f, (f.left, f.right), False))
        elif isinstance(f, Not):
            c = f.child
            if isinstance(c, Not):
                rules.append((f, (c.child,), False))
            elif isinstance(c, And):
                rules.append((f, (negation[c.left], negation[c.right]), True))
    if not rules:
        return rules, clash, {}

    adds_of = {f: adds for f, adds, _ in rules}
    stack = [f for f in seed if f in adds_of]
    live = set(stack)  # the live formulas that have a rule
    while stack:
        for g in adds_of[stack.pop()]:
            if g in adds_of and g not in live:
                live.add(g)
                stack.append(g)
    live_rules = [rule for rule in rules if rule[0] in live]
    # How often live rules add each live conclusion, and the targets of
    # live disjunction rules.
    produced: dict[Formula, int] = {}
    targeted: set[Formula] = set()
    for _, adds, blockable in live_rules:
        for g in adds:
            produced[g] = produced.get(g, 0) + 1
        if blockable:
            targeted.update(adds)

    isolated: _Isolated = {}
    for _, adds, blockable in live_rules:
        if not blockable:
            for g in adds:
                if g not in targeted:
                    isolated[g] = (g,)
        else:
            a, b = adds
            if a is not b and produced[a] == produced[b] == 1:
                isolated[a] = adds
    return rules, clash, isolated


def _conflicts(members: frozenset[Formula], new: Formula, clash: _Clash) -> bool:
    return isinstance(new, Falsum) or not members.isdisjoint(clash[new])


def _pending(
    members: frozenset[Formula], rules: list[_Rule], isolated: _Isolated
) -> tuple[Formula, ...]:
    """Formulas a rule could still add, in deterministic order.

    Members lie in the closure, so reading the table's rules in order and
    skipping non-members reads the members in sort_key order.  When the
    first move belongs to an isolated rule, that rule's moves are the
    only ones returned (`_branches` says why that is enough).
    """
    moves: dict[Formula, None] = {}
    for f, adds, blockable in rules:
        if f in members and (not blockable or members.isdisjoint(adds)):
            for g in adds:
                if g not in members:
                    if not moves and g in isolated:
                        return isolated[g]
                    moves[g] = None
    return tuple(moves)


def _branches(
    seed: frozenset[Formula],
    table: _Table,
    within: Optional[frozenset[Formula]] = None,
) -> Iterator[frozenset[Formula]]:
    """Depth-first over the graph of partial branches; yields finished ones.

    table is `_table(seed, csf(seed))`.  A finished branch is a set no
    rule applies to.  With within set, only moves that add a member of
    within are taken.  Order matters: a disjunction rule is blocked once
    fulfilled, so an element may be addable in one run order but not
    another.  A clashing seed yields nothing; from a clash-free seed, no
    move adds a clash, so every set reached is clash-free.

    When the first pending move belongs to an isolated rule, only that
    rule's moves are pushed.  A conjunction's or double negation's
    conclusion stays pending until it is added, and a fork stays open
    until one of its targets is added, which only the fork does; so every
    finished branch below the set holds that conclusion or a target of
    that fork.  Adding it blocks no other live rule, and it clashes with
    no formula of the branch, which is clash-free and holds it; so each
    run to the branch remains a run when that move is taken first, and no
    clash condition is needed.  The skipped siblings thus reach no
    finished branch that the kept ones do not.  The graph is acyclic and
    the search yields each finished branch where it first meets it, so the
    family and its order are those of the search that pushes every move;
    only fewer partial branches are visited.
    """
    rules, clash, isolated = table
    if any(_conflicts(seed, f, clash) for f in seed):
        return
    visited: set[frozenset[Formula]] = set()
    stack: list[frozenset[Formula]] = [seed]
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        moves = _pending(current, rules, isolated)
        if not moves:
            yield current
            continue
        successors = []
        for new in moves:
            if (within is None or new in within) and not _conflicts(current, new, clash):
                successors.append(current | {new})
        stack.extend(reversed(successors))


def _seed_table(
    seed: frozenset[Formula], tables: Optional[Tables]
) -> tuple[frozenset[Formula], _Table]:
    """The seed's closure and table, built on the first request in tables."""
    if tables is None:
        tables = {}
    got = tables.get(seed)
    if got is None:
        closure = csf(seed)
        got = tables[seed] = closure, _table(seed, closure)
    return got


def saturations(
    seed: Iterable[Formula], tables: Optional[Tables] = None
) -> Iterator[frozenset[Formula]]:
    """Enumerate every saturation of the seed as a member set, each once.

    The yield order is deterministic.  Yields nothing when the seed is
    classically inconsistent.  tables, when given, is the caller's
    per-solve `Tables`: the seed's table is read from it, or built and
    kept there.  The stream is `_branches`' own generator.
    """
    seed = frozenset(seed)
    _, table = _seed_table(seed, tables)
    return _branches(seed, table)


class _Family:
    """A seed's family: each iteration is a fresh stream until `len` has
    enumerated it whole, and then both read the members kept from that."""

    __slots__ = ("seed", "tables", "members")

    def __init__(self, seed: frozenset[Formula], tables: Optional[Tables]) -> None:
        self.seed, self.tables = seed, tables
        self.members: Optional[tuple[frozenset[Formula], ...]] = None

    def __iter__(self) -> Iterator[frozenset[Formula]]:
        if self.members is None:
            return saturations(self.seed, self.tables)
        return iter(self.members)

    def __len__(self) -> int:
        if self.members is None:
            self.members = tuple(saturations(self.seed, self.tables))
        return len(self.members)


def saturation_family(seed: Iterable[Formula], tables: Optional[Tables] = None) -> _Family:
    """Every saturation of the seed, in the order saturations() yields them.

    Iterating the view draws a fresh `saturations` stream, so a caller
    that stops early enumerates no further.  `len` enumerates the whole
    family once and keeps it for every later read.  `tuple` and `list`
    ask for an iterator before the length, so they enumerate it twice;
    `tuple(saturations(seed))` builds the family once.  Only the seed's
    table is shared, through tables, across the calls of one solve.
    """
    return _Family(frozenset(seed), tables)


def saturation_test(
    seed: Iterable[Formula], tables: Optional[Tables] = None
) -> Callable[[Iterable[Formula]], bool]:
    """`is_saturation_of(candidate, seed)` as a function of the candidate.

    The seed's closure and rule table are read from tables, or built
    once, here, for all the candidates tested against the same seed.
    """
    seed = frozenset(seed)
    closure, table = _seed_table(seed, tables)

    def test(candidate: Iterable[Formula]) -> bool:
        candidate = frozenset(candidate)
        if not seed <= candidate <= closure:
            return False
        return candidate in _branches(seed, table, within=candidate)

    return test


def is_saturation_of(candidate: Iterable[Formula], seed: Iterable[Formula]) -> bool:
    """Decide whether candidate is a saturation of seed.

    Checks the containment bounds seed <= candidate <= csf(seed) and that
    the branch search from seed, restricted to candidate's members,
    finishes on it.  That search only finishes on clash-free sets no rule
    applies to, so neither closedness nor clash-freeness needs a test of
    its own.
    """
    return saturation_test(seed)(candidate)
