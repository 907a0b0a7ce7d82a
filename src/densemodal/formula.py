"""Formula ASTs, concrete syntax and set-level closure operators.

The core grammar has five node kinds: atoms, falsum, negation, conjunction
and an indexed box.  Top, disjunction, implication and diamonds are surface
sugar: the parser rewrites them into the core on the way in and the printer
reintroduces them on the way out, so the solvers only ever handle five
shapes.  Unimodal formulas use box index "a" internally; the printer writes
a bare "[]"/"<>" for them in unimodal mode.

Nodes are hash-consed: there is one object per distinct formula, so
equality is identity and every set and memo of formulas hashes by
identity.  Construction is single-threaded (see `Formula`).  Each node
also stores its sort key, a flat tuple of its preorder tokens, so that
sorting formulas compares ints and names, never nested tuples (see
`sort_key`).
"""

from __future__ import annotations

import re
import weakref
from typing import Iterable, Iterator

MOD_A = "a"
MOD_B = "b"

UNIMODAL = "unimodal"
BIMODAL = "bimodal"


class ParseError(Exception):
    """Malformed or mode-incompatible input text."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (column {position})")
        self.message = message
        self.position = position


class Formula:
    """Base of the five core node kinds.

    Nodes are hash-consed: every kind is built by this one constructor,
    which looks its kind and fields up in one intern table first, so two
    equal formulas are one object and equality is identity.  Sets,
    frozensets and dicts of formulas therefore hash and compare nodes by
    identity, in C, and never walk the tree.  The table holds its nodes
    weakly, so a formula nothing else refers to is freed together with its
    entry: a miss stores a weak reference that carries the entry's key,
    and the table's removal callback deletes the entry once the node dies.
    Construction is single-threaded: two threads building the same
    formula at once could each make a node.

    Each kind names its fields in `__match_args__`, which repr and pickling
    read.  On a table miss its `_init` stores them, in one call, with the
    sort key and modal degree computed from the children's stored values.
    Nodes are immutable, and the stored values take no part in repr.
    """

    __slots__ = ("sort_key", "degree", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, fields)
        ref = _refs.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            node._init(*fields)
            ref = _Ref(node, _remove)
            ref.key = key
            _refs[key] = ref
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Pickles rebuild through the constructor, so a loaded formula is
        # interned like any other.
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def __str__(self) -> str:
        return render(self)


# Nodes are immutable, so `_init` stores fields through object's own
# __setattr__.
_set = object.__setattr__


# The intern table: (kind, fields) -> the one node with them.  Fields that
# are nodes are keyed by identity, which is sound because they are
# interned too.  An entry leaves the table when its node is freed.
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# Lookups and inserts use the table's dict of weak references directly,
# not the Python-level WeakValueDictionary.get and __setitem__.  A dead
# reference reads as a miss.  A miss stores a _Ref to the new node, which
# carries its key as the table's own KeyedRef does, so the table's removal
# callback (_remove) deletes the entry when the node is freed; that
# callback deletes only an entry whose reference is dead, so it never
# takes out a newer node stored under the same key.
_refs = _table.data
_remove = _table._remove


class _Ref(weakref.ref):
    """A weak reference that names its table key, built in C.

    weakref.KeyedRef does the same through a Python-level __new__ and
    __init__, which cost more than the rest of a miss.
    """

    __slots__ = ("key",)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def _init(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "sort_key", (1, name))
        _set(self, "degree", 0)


class Falsum(Formula):
    __slots__ = ()

    def _init(self) -> None:
        _set(self, "sort_key", (0,))
        _set(self, "degree", 0)


class Not(Formula):
    __slots__ = __match_args__ = ("child",)

    def _init(self, child: Formula) -> None:
        _set(self, "child", child)
        _set(self, "sort_key", (2,) + child.sort_key)
        _set(self, "degree", child.degree)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def _init(self, left: Formula, right: Formula) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "sort_key", (3,) + left.sort_key + right.sort_key)
        ld, rd = left.degree, right.degree
        _set(self, "degree", ld if ld > rd else rd)


class Box(Formula):
    __slots__ = __match_args__ = ("modality", "child")

    def _init(self, modality: str, child: Formula) -> None:
        if modality not in (MOD_A, MOD_B):
            raise ValueError(f"unknown modality {modality!r}")
        _set(self, "modality", modality)
        _set(self, "child", child)
        _set(self, "sort_key", (4, modality) + child.sort_key)
        _set(self, "degree", 1 + child.degree)


FALSUM = Falsum()
TOP = Not(FALSUM)


def lor(left: Formula, right: Formula) -> Formula:
    """Disjunction, in core form."""
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    """Implication, in core form."""
    return Not(And(left, Not(right)))


def diamond(modality: str, child: Formula) -> Formula:
    """Diamond, in core form."""
    return Not(Box(modality, Not(child)))


def sort_key(phi: Formula) -> tuple:
    """Total structural order on formulas, stored on each node.

    Every enumeration in the package iterates formulas in this order, so
    results are reproducible across processes: sets of formulas hash by
    identity and iterate in an order that follows memory layout.

    The key is the node's preorder token tuple: a kind code (falsum 0,
    atom 1, negation 2, conjunction 3, box 4), then the atom's name or
    the box's modality, then the children's keys, concatenated.  It
    orders exactly as the nested tuple (code, name or modality, child
    keys...) would: no formula's tokens are a proper prefix of another's,
    so two keys first differ inside the first child whose keys differ,
    and at that position both hold a token of the same role and type.
    Comparing two keys is a flat scan, where nested tuples cost time
    quadratic in depth per comparison.  The price is memory: a node's key
    holds one slot per node below it, O(size x height) slots per tree.
    """
    return phi.sort_key


def degree(phi: Formula) -> int:
    """Maximum box-nesting depth, stored on each node."""
    return phi.degree


def _nodes(phi: Formula) -> Iterator[Formula]:
    """Every node of the tree, shared subtrees once per occurrence."""
    todo = [phi]
    while todo:
        f = todo.pop()
        yield f
        if isinstance(f, And):
            todo.append(f.right)
            todo.append(f.left)
        elif isinstance(f, (Not, Box)):
            todo.append(f.child)


def size(phi: Formula) -> int:
    """Number of AST nodes; parentheses and modality indices do not count."""
    return sum(1 for _ in _nodes(phi))


def measures(phi: Formula) -> tuple[int, int]:
    return degree(phi), size(phi)


def atom_names(phi: Formula) -> frozenset[str]:
    return frozenset(f.name for f in _nodes(phi) if isinstance(f, Atom))


def is_unimodal(phi: Formula) -> bool:
    """True when no b-indexed box occurs anywhere in the tree."""
    return not any(isinstance(f, Box) and f.modality != MOD_A for f in _nodes(phi))


def set_degree(formulas: Iterable[Formula]) -> int:
    return max((degree(f) for f in formulas), default=0)


def set_size(formulas: Iterable[Formula]) -> int:
    return sum(size(f) for f in formulas)


def _closure(formulas: Iterable[Formula], unfold_boxes: bool) -> frozenset[Formula]:
    """Close under the classical decompositions, and under box unfolding if asked.

    Conjunctions give both conjuncts, negations their body, ~(phi & psi)
    gives ~phi and ~psi; with unfold_boxes, [x]phi gives phi and ~[x]phi
    gives ~phi.
    """
    out: set[Formula] = set()
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
            if unfold_boxes:
                todo.append(f.child)
        elif isinstance(f, Not):
            c = f.child
            todo.append(c)
            if isinstance(c, And):
                todo.append(Not(c.left))
                todo.append(Not(c.right))
            elif unfold_boxes and isinstance(c, Box):
                todo.append(Not(c.child))
    return frozenset(out)


def csf(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Classical closure: split conjunctions and negations, never boxes."""
    return _closure(formulas, unfold_boxes=False)


def sf(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Full closure: csf's walk, with boxes and negated boxes unfolded too.

    sf is closed under csf: csf(sf(X)) == sf(X).
    """
    return _closure(formulas, unfold_boxes=True)


def box_inverse(formulas: Iterable[Formula], modality: str) -> frozenset[Formula]:
    """Bodies of the top-level boxes with the given index."""
    return frozenset(
        f.child for f in formulas if isinstance(f, Box) and f.modality == modality
    )


# --------------------------------------------------------------------------
# Concrete syntax.
#
# atoms        [a-z][a-z0-9_]*        constants   false, true
# unary        ~  []  <>  [a]  [b]  <a>  <b>      (tightest, right-assoc)
# binary       &   then   |   then   ->           (loosest, right-assoc)

# One match per token, leading whitespace skipped.  Any other character is
# matched by the last alternative, so a scan never skips input: only
# trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[a-z][a-z0-9_]*)"
    r"|(?P<op>\[a\]|\[b\]|\[\]|<a>|<b>|<>|->|[&|~()])"
    r"|(?P<bad>\S))"
)

_CONSTANTS = {"false": FALSUM, "true": TOP}

# Unary tokens: the one mode each may be written in (None: both) and the
# node it builds around its operand.
_UNARY = {
    "~": (None, Not),
    "[]": (UNIMODAL, lambda child: Box(MOD_A, child)),
    "<>": (UNIMODAL, lambda child: diamond(MOD_A, child)),
    "[a]": (BIMODAL, lambda child: Box(MOD_A, child)),
    "[b]": (BIMODAL, lambda child: Box(MOD_B, child)),
    "<a>": (BIMODAL, lambda child: diamond(MOD_A, child)),
    "<b>": (BIMODAL, lambda child: diamond(MOD_B, child)),
}

# Binary tokens: precedence (higher binds tighter) and the core form they
# build.  All three are right-associative.
_BINARY = {"&": (3, And), "|": (2, lor), "->": (1, implies)}

# Deepest nesting the parser accepts: every unary operator, every opening
# parenthesis and every binary operator on the right spine of a chain
# counts one level.  At this depth the CLI's translate, oracle and kde
# commands answer every nesting shape with at least 100 frames of caller
# stack to spare under the default recursion limit of 1000.  Nested
# parentheses, at five parser frames a level (about 890 frames), first set
# it; the one precedence loop takes three a level (about 540), so the
# deepest stack at this depth is now translate's on a diamond chain, at
# about 710 frames.
MAX_DEPTH = 176


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        word = m[group]
        if group == "op":
            kind = word
        elif group == "atom":
            kind = word if word in _CONSTANTS else "atom"
        else:
            raise ParseError(f"unexpected character {word!r}", m.start(group))
        tokens.append((kind, word, m.start(group)))
    tokens.append(("eof", "", len(text)))
    return tokens


def parse(text: str, mode: str = UNIMODAL) -> Formula:
    """Parse concrete syntax into the desugared core AST.

    In unimodal mode the indexed operators [a]/[b]/<a>/<b> are rejected; in
    bimodal mode the bare []/<> are rejected.  Raises ParseError with a
    character position on any failure.
    """
    if mode not in (UNIMODAL, BIMODAL):
        raise ValueError(f"unknown mode {mode!r}")
    # The tokens as a stack, next token on top.  Only a step that raises
    # right after pops the end token, so tokens[-1] is always there.
    tokens = _tokenize(text)[::-1]
    result = _parse_binary(tokens, mode, 1, 0)
    kind, word, pos = tokens[-1]
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {word!r}", pos)
    return result


# The parser's steps are module functions that take the token stack and
# the mode as arguments: as closures inside parse they would refer to one
# another, a reference cycle that leaves each parse's functions and tokens
# to the cycle collector.


def _deeper(depth: int, pos: int) -> int:
    if depth >= MAX_DEPTH:
        raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", pos)
    return depth + 1


def _parse_unary(tokens: list, mode: str, depth: int) -> Formula:
    kind, _, pos = tokens[-1]
    if kind not in _UNARY:
        return _parse_primary(tokens, mode, depth)
    tokens.pop()
    child = _parse_unary(tokens, mode, _deeper(depth, pos))
    only, build = _UNARY[kind]
    if only is not None and only != mode:
        what = "bare" if only == UNIMODAL else "indexed operator"
        raise ParseError(f"{what} {kind!r} is not available in {mode} mode", pos)
    return build(child)


def _parse_primary(tokens: list, mode: str, depth: int) -> Formula:
    kind, word, pos = tokens.pop()
    if kind == "atom":
        return Atom(word)
    if kind in _CONSTANTS:
        return _CONSTANTS[kind]
    if kind == "(":
        inner = _parse_binary(tokens, mode, 1, _deeper(depth, pos))
        closing, _, cpos = tokens.pop()
        if closing != ")":
            raise ParseError("expected ')'", cpos)
        return inner
    raise ParseError("expected a formula", pos)


def _parse_binary(tokens: list, mode: str, lowest: int, depth: int) -> Formula:
    # Precedence climbing: take operators binding at least as tightly as
    # `lowest`, each one's right operand one level deeper.
    left = _parse_unary(tokens, mode, depth)
    while True:
        kind, _, pos = tokens[-1]
        precedence, build = _BINARY.get(kind, (0, None))
        if precedence < lowest:
            return left
        tokens.pop()
        left = build(left, _parse_binary(tokens, mode, precedence, _deeper(depth, pos)))


# Printer precedence levels; unary operators and atoms bind tightest.
_LV_IMP, _LV_OR, _LV_AND, _LV_TIGHT = 1, 2, 3, 4


def render(phi: Formula, mode: str | None = None) -> str:
    """Print a formula so that parse(render(f), mode) == f.

    The printer re-sugars true, disjunction, implication and diamonds.  With
    mode=None the mode is inferred: bimodal exactly when a b-box occurs.
    """
    if mode is None:
        mode = UNIMODAL if is_unimodal(phi) else BIMODAL
    if mode not in (UNIMODAL, BIMODAL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == UNIMODAL and not is_unimodal(phi):
        raise ValueError("cannot render a b-box in unimodal mode")
    text, _ = _render(phi, mode)
    return text


def _wrap(rendered: tuple[str, int], minimum: int) -> str:
    text, level = rendered
    return f"({text})" if level < minimum else text


def _render(phi: Formula, mode: str) -> tuple[str, int]:
    if isinstance(phi, Atom):
        return phi.name, _LV_TIGHT
    if isinstance(phi, Falsum):
        return "false", _LV_TIGHT
    if isinstance(phi, Box):
        sym = "[]" if mode == UNIMODAL else f"[{phi.modality}]"
        return sym + _wrap(_render(phi.child, mode), _LV_TIGHT), _LV_TIGHT
    if isinstance(phi, And):
        left = _wrap(_render(phi.left, mode), _LV_AND + 1)
        right = _wrap(_render(phi.right, mode), _LV_AND)
        return f"{left} & {right}", _LV_AND
    # Negation: check the sugar patterns before falling back to "~".
    c = phi.child
    if isinstance(c, Falsum):
        return "true", _LV_TIGHT
    if isinstance(c, Box) and isinstance(c.child, Not):
        sym = "<>" if mode == UNIMODAL else f"<{c.modality}>"
        return sym + _wrap(_render(c.child.child, mode), _LV_TIGHT), _LV_TIGHT
    if isinstance(c, And):
        if isinstance(c.left, Not) and isinstance(c.right, Not):
            left = _wrap(_render(c.left.child, mode), _LV_OR + 1)
            right = _wrap(_render(c.right.child, mode), _LV_OR)
            return f"{left} | {right}", _LV_OR
        if isinstance(c.right, Not):
            left = _wrap(_render(c.left, mode), _LV_IMP + 1)
            right = _wrap(_render(c.right.child, mode), _LV_IMP)
            return f"{left} -> {right}", _LV_IMP
    return "~" + _wrap(_render(c, mode), _LV_TIGHT), _LV_TIGHT


def all_formulas(
    max_size: int,
    names: Iterable[str],
    modalities: tuple[str, ...] = (MOD_A,),
) -> list[Formula]:
    """Every core-AST formula with at most max_size nodes, smallest first.

    The order is fully deterministic: by node count, and within one count by
    construction order (negations, then boxes, then conjunctions by split).
    """
    names = sorted(names)
    by_size: dict[int, list[Formula]] = {1: [FALSUM] + [Atom(n) for n in names]}
    for k in range(2, max_size + 1):
        batch: list[Formula] = [Not(f) for f in by_size[k - 1]]
        for m in modalities:
            batch.extend(Box(m, f) for f in by_size[k - 1])
        for i in range(1, k - 1):
            batch.extend(
                And(l, r) for l in by_size[i] for r in by_size[k - 1 - i]
            )
        by_size[k] = batch
    result: list[Formula] = []
    for k in range(1, max_size + 1):
        result.extend(by_size[k])
    return result
