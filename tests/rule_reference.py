"""Test-only references: the oracle's former density tests, set-based
truth sets, frame enumeration and edge-set models, and the former
saturation rules, search and membership test.

Density used to be written once per frame class, both over model edge
sets and over successor bitmasks, and `_frame_masks` had one loop per
frame class and modality.  `is_saturation_of` used to spell out the
branch rules' closure conditions itself and then run a search of its own
for a run of the rules that reaches the candidate.  The oracle and the
saturation module now write each rule once; the differential tests
compare them against the functions below.  The oracle's truth sets and
density test used to run on Python sets of worlds, with successor dicts
rebuilt per call; they now run on successor bitsets built once per model,
and `_successors`, `truth_set` and `_weakly_dense` below are the set form
they replaced.  Models used to hold each relation as a set of edge
tuples, which `frame_model` built from the profile frame and
`model_to_json` sorted; they now hold one successor mask per world, and
`EdgeModel`, `frame_model` and `model_to_json` below are the edge-set
form.  The saturation search used to re-sort a state's members
and build fresh `Not` partners on every visit; it now reads a table built
once per seed.  `_pending`, `_conflicts` and `_branches` below are the
per-visit form it replaced.  Its table's isolated rules used to be
limited by clash and falsum conditions the reordering argument does not
need; `table` below keeps them.  The saturation module also used to test
clashes with a `_clashes` of its own beside its clash table; it now reads
the table alone, and `_clashes` below is a copy of the one it dropped, so
that this reference shares nothing with the module it checks.  `csf` and
`sf` used to be two copies of one closure walker; the package now has one
walker with a flag, and `csf` and `sf` below are the two copies.  The
parser used to write one function per binary operator and spell out each
unary token in `unary_node`; it now climbs one operator table, and `parse`
below is the form it replaced.  Its `_tokenize` is the former tokenizer
too: it matched one token or whitespace run per call, where the package
now reads every token in one scan.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

from densemodal import (
    BIMODAL,
    FALSUM,
    MOD_A,
    MOD_B,
    UNIMODAL,
    And,
    Atom,
    Box,
    Falsum,
    Not,
    ParseError,
    diamond,
    implies,
    lor,
    sort_key,
)
from densemodal.formula import MAX_DEPTH
from densemodal.oracle import ALL, DENSE, WEAKLY_DENSE, _succ_masks


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def csf(formulas):
    """Classical closure: split conjunctions and negations, never boxes."""
    out = set()
    todo = list(formulas)
    while todo:
        f = todo.pop()
        if f in out:
            continue
        out.add(f)
        if isinstance(f, And):
            todo.append(f.left)
            todo.append(f.right)
        elif isinstance(f, Not):
            c = f.child
            todo.append(c)
            if isinstance(c, And):
                todo.append(Not(c.left))
                todo.append(Not(c.right))
    return frozenset(out)


def sf(formulas):
    """Full closure: like csf, but boxes and negated boxes unfold too."""
    out = set()
    todo = list(formulas)
    while todo:
        f = todo.pop()
        if f in out:
            continue
        out.add(f)
        if isinstance(f, And):
            todo.append(f.left)
            todo.append(f.right)
        elif isinstance(f, Box):
            todo.append(f.child)
        elif isinstance(f, Not):
            c = f.child
            todo.append(c)
            if isinstance(c, And):
                todo.append(Not(c.left))
                todo.append(Not(c.right))
            elif isinstance(c, Box):
                todo.append(Not(c.child))
    return frozenset(out)


def _clashes(members):
    if FALSUM in members:
        return True
    return any(isinstance(f, Not) and f.child in members for f in members)


def is_dense(model):
    """Every ra edge has an ra-ra midpoint."""
    succ = {w: set() for w in model.worlds}
    for s, t in model.ra:
        succ[s].add(t)
    return all(any(t in succ[u] for u in succ[s]) for (s, t) in model.ra)


def is_weakly_dense(model):
    """Every ra edge has an ra-rb midpoint."""
    succ_a = {w: set() for w in model.worlds}
    succ_b = {w: set() for w in model.worlds}
    for s, t in model.ra:
        succ_a[s].add(t)
    for s, t in model.rb:
        succ_b[s].add(t)
    return all(any(t in succ_b[u] for u in succ_a[s]) for (s, t) in model.ra)


def _successors(worlds, rel):
    succ = {w: set() for w in worlds}
    for s, t in rel:
        succ[s].add(t)
    return succ


def truth_set(model, phi):
    """All worlds satisfying phi, each distinct subformula evaluated once."""
    everything = frozenset(model.worlds)
    succ_a = _successors(model.worlds, model.ra)
    succ_b = _successors(model.worlds, model.rb)
    memo = {}

    def ev(f):
        got = memo.get(f)
        if got is not None:
            return got
        if isinstance(f, Atom):
            out = frozenset(model.valuation.get(f.name, set()))
        elif isinstance(f, Falsum):
            out = frozenset()
        elif isinstance(f, Not):
            out = everything - ev(f.child)
        elif isinstance(f, And):
            out = ev(f.left) & ev(f.right)
        else:
            succ = succ_a if f.modality == MOD_A else succ_b
            inner = ev(f.child)
            out = frozenset(w for w in model.worlds if succ[w] <= inner)
        memo[f] = out
        return out

    return ev(phi)


def _weakly_dense(worlds, ra, rb):
    succ_a = _successors(worlds, ra)
    succ_b = _successors(worlds, rb)
    return all(any(t in succ_b[u] for u in succ_a[s]) for (s, t) in ra)


def _mask_dense(n, succ):
    for s in range(n):
        for t in _bits(succ[s]):
            if not any((succ[u] >> t) & 1 for u in _bits(succ[s])):
                return False
    return True


def _mask_weakly_dense(n, succ_a, succ_b):
    for s in range(n):
        for t in _bits(succ_a[s]):
            if not any((succ_b[u] >> t) & 1 for u in _bits(succ_a[s])):
                return False
    return True


@lru_cache(maxsize=None)
def dense_masks(n):
    return tuple(m for m in range(1 << (n * n)) if _mask_dense(n, _succ_masks(n, m)))


@lru_cache(maxsize=None)
def weakly_dense_mask_pairs(n):
    pairs = []
    for ra in range(1 << (n * n)):
        sa = _succ_masks(n, ra)
        for rb in range(1 << (n * n)):
            if _mask_weakly_dense(n, sa, _succ_masks(n, rb)):
                pairs.append((ra, rb))
    return tuple(pairs)


def frame_masks(n, frame_class, bimodal):
    total = 1 << (n * n)
    if frame_class == WEAKLY_DENSE:
        yield from weakly_dense_mask_pairs(n)
    elif frame_class == DENSE:
        if bimodal:
            for ra in dense_masks(n):
                for rb in range(total):
                    yield ra, rb
        else:
            for ra in dense_masks(n):
                yield ra, 0
    else:
        assert frame_class == ALL
        if bimodal:
            for ra in range(total):
                for rb in range(total):
                    yield ra, rb
        else:
            for ra in range(total):
                yield ra, 0


@dataclass
class EdgeModel:
    """The former KripkeModel's fields: each relation a set of (s, t) world-id pairs."""

    worlds: list
    ra: set
    rb: set
    valuation: dict
    root: int


def frame_model(frame, ix, root):
    """Read a profile frame as a model: worlds are the profiles in lexicographic order."""
    order = sorted(frame.profiles)
    ids = {p: i for i, p in enumerate(order)}
    valuation = {}
    for i, f in enumerate(ix.entries):
        if isinstance(f, Atom):
            valuation[f.name] = {ids[p] for p in order if p[i] == 1}
    return EdgeModel(
        worlds=list(range(len(order))),
        ra={(ids[x], ids[y]) for (x, y) in frame.rel},
        rb=set(),
        valuation=valuation,
        root=ids[root],
    )


def model_to_json(model, include_rb=True):
    """The JSON form, from sorted edge tuples."""
    data = {
        "worlds": sorted(model.worlds),
        "ra": sorted([s, t] for (s, t) in model.ra),
        "val": {name: sorted(ws) for name, ws in sorted(model.valuation.items())},
        "root": model.root,
    }
    if include_rb:
        data["rb"] = sorted([s, t] for (s, t) in model.rb)
    return data


def is_saturation_of(candidate, seed):
    """Containment bounds, clash-freeness, closure, then a reaching run."""
    candidate = frozenset(candidate)
    seed = frozenset(seed)
    if not seed <= candidate:
        return False
    if not candidate <= csf(seed):
        return False
    if _clashes(candidate):
        return False
    for f in candidate:
        if isinstance(f, And):
            if f.left not in candidate or f.right not in candidate:
                return False
        elif isinstance(f, Not):
            c = f.child
            if isinstance(c, Not) and c.child not in candidate:
                return False
            if isinstance(c, And):
                if Not(c.left) not in candidate and Not(c.right) not in candidate:
                    return False
    return _reachable(seed, candidate)


def _reachable(seed, target):
    visited = set()
    stack = [seed]
    while stack:
        current = stack.pop()
        if current == target:
            return True
        if current in visited:
            continue
        visited.add(current)
        for new in _pending(current):
            if new in target:
                stack.append(current | {new})
    return False


def _conflicts(members, new):
    if isinstance(new, Falsum):
        return True
    if isinstance(new, Not) and new.child in members:
        return True
    return Not(new) in members


def _pending(members):
    """Formulas a rule could still add, in deterministic order."""
    moves = []
    seen = set()

    def push(f):
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


def _branches(seed, within=None):
    """Depth-first over the graph of partial branches; yields finished ones."""
    visited = set()
    stack = [seed]
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


def saturation_family(seed):
    """Member sets of every saturation of seed, in the search's yield order."""
    seed = frozenset(seed)
    if _clashes(seed):
        return []
    return list(_branches(seed))


def table(seed, closure):
    """The rule table with the isolation conditions the search first had.

    Rules and clashes as the package builds them.  A conjunction's or
    double negation's conclusion g was isolated only if g is not falsum,
    no live disjunction rule targets g and no live conclusion clashes
    with g; a fork only if its two targets are distinct, added by no other
    live rule and clash with no live conclusion.
    """
    negation = {f.child: f for f in closure if isinstance(f, Not)}
    rules = []
    clash = {}
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

    adds_of = {f: adds for f, adds, _ in rules}
    stack = [f for f in seed if f in adds_of]
    live = set(stack)
    while stack:
        for g in adds_of[stack.pop()]:
            if g in adds_of and g not in live:
                live.add(g)
                stack.append(g)
    live_rules = [rule for rule in rules if rule[0] in live]
    produced = {}
    targeted = set()
    for _, adds, blockable in live_rules:
        for g in adds:
            produced[g] = produced.get(g, 0) + 1
        if blockable:
            targeted.update(adds)
    clashing = {h for g in produced for h in clash[g]}

    isolated = {}
    for _, adds, blockable in live_rules:
        if not blockable:
            for g in adds:
                if not (isinstance(g, Falsum) or g in targeted or g in clashing):
                    isolated[g] = (g,)
        else:
            a, b = adds
            if a is not b and produced[a] == produced[b] == 1 and not (
                a in clashing or b in clashing
            ):
                isolated[a] = adds
    return rules, clash, isolated


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<atom>[a-z][a-z0-9_]*)"
    r"|(?P<op>\[a\]|\[b\]|\[\]|<a>|<b>|<>|->|[&|~()])"
)

_UNARY_TOKENS = {"~", "[]", "<>", "[a]", "[b]", "<a>", "<b>"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "atom":
            word = m.group()
            kind = word if word in ("false", "true") else "atom"
            tokens.append((kind, word, pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def parse(text, mode=UNIMODAL):
    """Concrete syntax to the core AST, one descent function per operator."""
    if mode not in (UNIMODAL, BIMODAL):
        raise ValueError(f"unknown mode {mode!r}")
    tokens = _tokenize(text)
    index = 0

    def peek():
        return tokens[index]

    def advance():
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def unary_node(op, pos, child):
        if op == "~":
            return Not(child)
        if op in ("[]", "<>"):
            if mode == BIMODAL:
                raise ParseError(
                    f"bare {op!r} is not available in bimodal mode", pos
                )
            return Box(MOD_A, child) if op == "[]" else diamond(MOD_A, child)
        if mode == UNIMODAL:
            raise ParseError(
                f"indexed operator {op!r} is not available in unimodal mode", pos
            )
        modality = MOD_A if op in ("[a]", "<a>") else MOD_B
        if op.startswith("["):
            return Box(modality, child)
        return diamond(modality, child)

    def deeper(depth, pos):
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def parse_unary(depth):
        kind, _, pos = peek()
        if kind in _UNARY_TOKENS:
            advance()
            return unary_node(kind, pos, parse_unary(deeper(depth, pos)))
        return parse_primary(depth)

    def parse_primary(depth):
        kind, word, pos = advance()
        if kind == "atom":
            return Atom(word)
        if kind == "false":
            return FALSUM
        if kind == "true":
            return Not(FALSUM)
        if kind == "(":
            inner = parse_implies(deeper(depth, pos))
            closing, _, cpos = advance()
            if closing != ")":
                raise ParseError("expected ')'", cpos)
            return inner
        raise ParseError("expected a formula", pos)

    def parse_and(depth):
        left = parse_unary(depth)
        kind, _, pos = peek()
        if kind == "&":
            advance()
            return And(left, parse_and(deeper(depth, pos)))
        return left

    def parse_or(depth):
        left = parse_and(depth)
        kind, _, pos = peek()
        if kind == "|":
            advance()
            return lor(left, parse_or(deeper(depth, pos)))
        return left

    def parse_implies(depth):
        left = parse_or(depth)
        kind, _, pos = peek()
        if kind == "->":
            advance()
            return implies(left, parse_implies(deeper(depth, pos)))
        return left

    result = parse_implies(0)
    kind, word, pos = peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {word!r}", pos)
    return result
