"""Formula ASTs, concrete syntax and set-level closure operators.

The core grammar has five node kinds: atoms, falsum, negation, conjunction
and an indexed box.  Top, disjunction, implication and diamonds are surface
sugar: the parser rewrites them into the core on the way in and the printer
reintroduces them on the way out, so the solvers only ever handle five
shapes.  Unimodal formulas use box index "a" internally; the printer writes
a bare "[]"/"<>" for them in unimodal mode.

Nodes are hash-consed: there is one object per distinct formula, so
equality is identity and every set and memo of formulas hashes by
identity.  Construction is single-threaded (see `Formula`).
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field, fields
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

    Nodes are hash-consed: every constructor looks its kind and fields up
    in one intern table first, so two equal formulas are one object and
    equality is identity.  Sets, frozensets and dicts of formulas therefore
    hash and compare nodes by identity, in C, and never walk the tree.  The
    table holds its nodes weakly, so a formula nothing else refers to is
    freed together with its entry.  Construction is single-threaded: two
    threads building the same formula at once could each make a node.

    Each node also computes its sort key and modal degree once, at
    construction, from its children's stored values.  The stored values
    take no part in repr.
    """

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        # Pickles rebuild through the constructor, so a loaded formula is
        # interned like any other.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:
        return render(self)


def _stored():
    return field(init=False, repr=False)


# Nodes are frozen, so their constructors store fields through object's
# own __setattr__.
_set = object.__setattr__


# The intern table: (kind, fields) -> the one node with them.  Fields that
# are nodes are keyed by identity, which is sound because they are
# interned too.  An entry leaves the table when its node is freed.
_table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Atom(Formula):
    name: str
    sort_key: tuple = _stored()
    degree: int = _stored()

    def __new__(cls, name: str) -> Atom:
        key = (cls, name)
        node = _table.get(key)
        if node is None:
            node = _table[key] = object.__new__(cls)
            _set(node, "name", name)
            _set(node, "sort_key", (1, name))
            _set(node, "degree", 0)
        return node


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Falsum(Formula):
    sort_key: tuple = _stored()
    degree: int = _stored()

    def __new__(cls) -> Falsum:
        key = (cls,)
        node = _table.get(key)
        if node is None:
            node = _table[key] = object.__new__(cls)
            _set(node, "sort_key", (0,))
            _set(node, "degree", 0)
        return node


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Not(Formula):
    child: Formula
    sort_key: tuple = _stored()
    degree: int = _stored()

    def __new__(cls, child: Formula) -> Not:
        key = (cls, child)
        node = _table.get(key)
        if node is None:
            node = _table[key] = object.__new__(cls)
            _set(node, "child", child)
            _set(node, "sort_key", (2, child.sort_key))
            _set(node, "degree", child.degree)
        return node


@dataclass(frozen=True, slots=True, eq=False, init=False)
class And(Formula):
    left: Formula
    right: Formula
    sort_key: tuple = _stored()
    degree: int = _stored()

    def __new__(cls, left: Formula, right: Formula) -> And:
        key = (cls, left, right)
        node = _table.get(key)
        if node is None:
            node = _table[key] = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            _set(node, "sort_key", (3, left.sort_key, right.sort_key))
            ld, rd = left.degree, right.degree
            _set(node, "degree", ld if ld > rd else rd)
        return node


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Box(Formula):
    modality: str
    child: Formula
    sort_key: tuple = _stored()
    degree: int = _stored()

    def __new__(cls, modality: str, child: Formula) -> Box:
        key = (cls, modality, child)
        node = _table.get(key)
        if node is None:
            if modality not in (MOD_A, MOD_B):
                raise ValueError(f"unknown modality {modality!r}")
            node = _table[key] = object.__new__(cls)
            _set(node, "modality", modality)
            _set(node, "child", child)
            _set(node, "sort_key", (4, modality, child.sort_key))
            _set(node, "degree", 1 + child.degree)
        return node


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
    """
    return phi.sort_key


def sorted_formulas(formulas: Iterable[Formula]) -> list[Formula]:
    return sorted(formulas, key=sort_key)


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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<atom>[a-z][a-z0-9_]*)"
    r"|(?P<op>\[a\]|\[b\]|\[\]|<a>|<b>|<>|->|[&|~()])"
)

_UNARY_TOKENS = {"~", "[]", "<>", "[a]", "[b]", "<a>", "<b>"}

# Deepest nesting the parser accepts: every unary operator, every opening
# parenthesis and every binary operator on the right spine of a chain
# counts one level.  This is the largest depth at which the CLI's
# translate, oracle and kde commands answer every nesting shape with 100
# frames of caller stack to spare under the default recursion limit of
# 1000; nested parentheses, at five parser frames a level, set it.
MAX_DEPTH = 176


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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


def parse(text: str, mode: str = UNIMODAL) -> Formula:
    """Parse concrete syntax into the desugared core AST.

    In unimodal mode the indexed operators [a]/[b]/<a>/<b> are rejected; in
    bimodal mode the bare []/<> are rejected.  Raises ParseError with a
    character position on any failure.
    """
    if mode not in (UNIMODAL, BIMODAL):
        raise ValueError(f"unknown mode {mode!r}")
    tokens = _tokenize(text)
    index = 0

    def peek() -> tuple[str, str, int]:
        return tokens[index]

    def advance() -> tuple[str, str, int]:
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def unary_node(op: str, pos: int, child: Formula) -> Formula:
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

    def deeper(depth: int, pos: int) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def parse_unary(depth: int) -> Formula:
        kind, _, pos = peek()
        if kind in _UNARY_TOKENS:
            advance()
            return unary_node(kind, pos, parse_unary(deeper(depth, pos)))
        return parse_primary(depth)

    def parse_primary(depth: int) -> Formula:
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

    def parse_and(depth: int) -> Formula:
        left = parse_unary(depth)
        kind, _, pos = peek()
        if kind == "&":
            advance()
            return And(left, parse_and(deeper(depth, pos)))
        return left

    def parse_or(depth: int) -> Formula:
        left = parse_and(depth)
        kind, _, pos = peek()
        if kind == "|":
            advance()
            return lor(left, parse_or(deeper(depth, pos)))
        return left

    def parse_implies(depth: int) -> Formula:
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


def _box_symbol(modality: str, mode: str) -> str:
    if mode == UNIMODAL:
        return "[]"
    return "[a]" if modality == MOD_A else "[b]"


def _diamond_symbol(modality: str, mode: str) -> str:
    if mode == UNIMODAL:
        return "<>"
    return "<a>" if modality == MOD_A else "<b>"


def _render(phi: Formula, mode: str) -> tuple[str, int]:
    if isinstance(phi, Atom):
        return phi.name, _LV_TIGHT
    if isinstance(phi, Falsum):
        return "false", _LV_TIGHT
    if isinstance(phi, Box):
        sym = _box_symbol(phi.modality, mode)
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
        sym = _diamond_symbol(c.modality, mode)
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
