"""Satisfiability over weakly dense bimodal frames.

A finite formula set is satisfiable exactly when one of its saturations is.
For a saturation, every negated b-box spawns an ordinary successor problem
of strictly smaller degree.  Every negated a-box starts a window chain: an
initial window whose first part carries the diamond body, then repeated
continuations whose first parts must all be satisfiable.  An infinite such
chain would witness the diamond outright; because windows over one anchor
form a finite space, a chain that repeats a window can be looped instead.

One depth-first search decides each a-diamond: it walks the chains from
each initial window in turn and accepts on the first window repeated
along the current chain (a lasso), which the witness loops.  The
search terminates because windows over one anchor are finitely many: each
of a window's d+1 parts is a clash-free subset of the anchor's closure of
M formulas, so there are fewer than 2**(M*(d+1)) of them.  That count is
the paper's pigeonhole rule, which accepts a chain once that many windows
with satisfiable heads line up; such a chain must repeat a window, and a
lasso unrolls to any length, so both rules accept the same chains.  The
test-only counter walk (tests/counter_reference.py) keeps the paper's rule
as the reference this search is checked against.

A saturation's verdict depends only on its modal part: its a-box and
b-box bodies, its a-diamond and b-diamond bodies, and its degree, which
sets the window length.  Nothing else of the member set is read, so two
saturations with one modal part get the same verdict and the same child
traces; only the world's own atoms differ.

A solve holds a memo, its seed tables and, per chain search in progress,
one stack: its bottom frame reads the diamond's initial windows, and each
frame above it holds one window of the current chain, whose continuations
it reads as a stream: one at a time, never kept past the frame.  A window
is a plain tuple of parts, so the one branch in hand is that stack and the
recursion above it, as in the paper's tableau.  The memo is keyed
on modal parts, and a hit reuses the cached children under the set's own
members, so the witness is the one a search without it would build.
Saturation families are streams too: the search draws a family's members
one at a time and stops at the first satisfiable one, and the windows
module draws each window part's family the same way.

Every SAT verdict is converted into an explicit finite model (worlds are
the distinct saturations the accepted search touched, chains close their
loops with b-edges) and verified against the model checker before being
reported; a verdict whose witness fails verification raises InvariantError
rather than returning.  Results carry the search counters as the dict that
`solve --stats` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .formula import Atom, Box, Formula, MOD_A, Not, sort_key
from .oracle import WEAKLY_DENSE, KripkeModel, verify
# kdeab does not call these; densebench/layers.py wraps them as kdeab call sites.
from .oracle import is_weakly_dense, model_check  # noqa: F401
from .saturation import saturation_family  # noqa: F401
from .saturation import Tables, saturations
from . import windows as _windows

SAT = "SAT"
UNSAT = "UNSAT"


@dataclass(frozen=True)
class SatResult:
    """A verdict, its checked witness (None unless SAT) and the `--stats` dict."""

    verdict: str
    witness: Optional[KripkeModel]
    stats: dict


@dataclass
class Trace:
    """Accepted search tree: one node per satisfiable saturation."""

    members: frozenset[Formula]
    b_children: list["Trace"] = field(default_factory=list)
    a_chains: list["ChainWitness"] = field(default_factory=list)


@dataclass
class ChainWitness:
    """Heads of an accepted window chain; the tail loops back to cycle_start."""

    heads: list[Trace]
    cycle_start: int


# What sat_members reads of a member set: its a-box and b-box bodies, its
# a-diamond and b-diamond bodies in sort_key order, and its degree.
_ModalPart = tuple[
    frozenset[Formula], frozenset[Formula], tuple[Formula, ...], tuple[Formula, ...], int
]


def _modal_part(members: frozenset[Formula]) -> _ModalPart:
    """Classify a member set's formulas in one pass."""
    box_a: list[Formula] = []
    box_b: list[Formula] = []
    diamond_a: list[Formula] = []
    diamond_b: list[Formula] = []
    degree = 0
    for f in members:
        if f.degree > degree:
            degree = f.degree
        if isinstance(f, Box):
            (box_a if f.modality == MOD_A else box_b).append(f.child)
        elif isinstance(f, Not) and isinstance(f.child, Box):
            (diamond_a if f.child.modality == MOD_A else diamond_b).append(f.child.child)
    return (
        frozenset(box_a),
        frozenset(box_b),
        tuple(sorted(diamond_a, key=sort_key)),
        tuple(sorted(diamond_b, key=sort_key)),
        degree,
    )


class _Search:
    """One solve.  Its memo, seed tables and counters live as long as the
    solve; each chain search in progress adds one stack (see lasso_chain).

    stats is the dict `--stats` prints.  saturations counts the saturations
    the search tried: the members it drew from the top-level set's family
    and from each b-diamond seed's, which it stops drawing at the first
    satisfiable one (window parts, enumerated by the windows module, are
    not counted).  windows counts the windows drawn across all chain
    searches, initial ones included.  max_depth is the deepest recursive
    successor problem the search solved rather than read from the memo
    (the root counts as depth 0).
    """

    def __init__(self, memo: bool = True):
        self.memo_enabled = memo
        # Solved modal parts (see _modal_part).
        self.modal_memo: dict[_ModalPart, Optional[Trace]] = {}
        self.stats = {"max_depth": 0, "saturations": 0, "windows": 0}
        # Each seed's closure and rule table, built once per solve.
        self.tables: Tables = {}

    def first(self, seed: frozenset[Formula], depth: int) -> Optional[Trace]:
        """The trace of the seed's first satisfiable saturation, if any.

        The seed's saturations are drawn as a stream, each counted as it
        is drawn, and none after the first satisfiable one.
        """
        for members in saturations(seed, self.tables):
            self.stats["saturations"] += 1
            trace = self.sat_members(members, depth)
            if trace is not None:
                return trace
        return None

    def sat_members(self, members: frozenset[Formula], depth: int) -> Optional[Trace]:
        part = _modal_part(members)
        if self.memo_enabled and part in self.modal_memo:
            cached = self.modal_memo[part]
            if cached is None:
                return None
            return Trace(members, cached.b_children, cached.a_chains)
        if depth > self.stats["max_depth"]:
            self.stats["max_depth"] = depth
        boxa, boxb, diamonds_a, diamonds_b, degree = part
        node: Optional[Trace] = Trace(members)
        for body in diamonds_b:
            child = self.first(frozenset({Not(body)}) | boxb, depth + 1)
            if child is None:
                node = None
                break
            node.b_children.append(child)
        if node is not None:
            for body in diamonds_a:
                starts = _windows.initial_windows(boxa, degree, Not(body), self.tables)
                chain = self.lasso_chain(boxa, starts, depth)
                if chain is None:
                    node = None
                    break
                node.a_chains.append(chain)
        if self.memo_enabled:
            self.modal_memo[part] = node
        return node

    def lasso_chain(
        self, boxa: frozenset[Formula], starts: Iterator[_windows.Parts], depth: int
    ) -> Optional[ChainWitness]:
        """Accept on the first window repeated along the current chain.

        The stack's bottom frame holds the stream of start windows; above
        it, one frame per window on the current chain holds the window's
        parts, its head's trace and its live stream of continuations.  The
        search draws the next window from the top stream only when it
        needs one, so a start is drawn only once every chain from the one
        before has failed.  Returns None once it has walked every
        repetition-free chain from every start, of which there are finitely
        many (see the module docstring).
        """
        stack: list = [((), None, starts)]
        seen: dict[_windows.Parts, int] = {}
        while stack:
            parts = next(stack[-1][2], None)
            if parts is None:
                # The bottom frame's () is the one key never in seen.
                seen.pop(stack.pop()[0], None)
                continue
            self.stats["windows"] += 1
            node = self.sat_members(parts[0], depth + 1)
            if node is None:
                continue
            if parts in seen:
                return ChainWitness([head for _, head, _ in stack[1:]], seen[parts])
            seen[parts] = len(stack) - 1
            stack.append((parts, node, _windows.continuations(boxa, parts, self.tables)))
        return None


# --------------------------------------------------------------------------
# Public entry points.


def extract_model(trace: Trace) -> KripkeModel:
    """Turn an accepted search tree into a finite pointed model.

    One world per distinct saturation, numbered in discovery order.
    b-diamond children get b-edges; every head of a window chain gets an
    a-edge from its anchor, each head a b-edge from the next one, and the
    head after the last is the first of the cycle, closing the loop.  The
    edges go straight into one successor mask per world.
    """
    ids: dict[frozenset[Formula], int] = {}
    order: list[frozenset[Formula]] = []
    succ_a: list[int] = []
    succ_b: list[int] = []

    def world(node: Trace) -> int:
        got = ids.get(node.members)
        if got is not None:
            return got
        wid = len(order)
        ids[node.members] = wid
        order.append(node.members)
        succ_a.append(0)
        succ_b.append(0)
        for child in node.b_children:
            # The visit may add edges to this world's masks: finish it first.
            cid = world(child)
            succ_b[wid] |= 1 << cid
        for chain in node.a_chains:
            head_ids = [world(h) for h in chain.heads]
            count = len(head_ids)
            for i, hid in enumerate(head_ids):
                succ_a[wid] |= 1 << hid
                after = head_ids[i + 1] if i + 1 < count else head_ids[chain.cycle_start]
                succ_b[after] |= 1 << hid
        return wid

    root = world(trace)
    val_masks: dict[str, int] = {}
    for wid, members in enumerate(order):
        for f in members:
            if isinstance(f, Atom):
                val_masks[f.name] = val_masks.get(f.name, 0) | 1 << wid
    return KripkeModel.from_masks(range(len(order)), succ_a, succ_b, val_masks, root)


def _verified_witness(trace: Trace, at_root: Iterable[Formula]) -> KripkeModel:
    model = extract_model(trace)
    verify(model, sorted(at_root, key=sort_key), WEAKLY_DENSE, "extracted witness")
    return model


def sat_set(formulas: Iterable[Formula], memo: bool = True) -> SatResult:
    """Satisfiability of a finite bimodal formula set over weakly dense frames.

    SAT exactly when some saturation of the set is satisfiable; the verdict
    carries a verified witness model and search statistics.
    """
    targets = frozenset(formulas)
    search = _Search(memo)
    trace = search.first(targets, 0)
    if trace is None:
        return SatResult(UNSAT, None, search.stats)
    return SatResult(SAT, _verified_witness(trace, targets), search.stats)
