"""Satisfiability over weakly dense bimodal frames.

A finite formula set is satisfiable exactly when one of its saturations is.
For a saturation, every negated b-box spawns an ordinary successor problem
of strictly smaller degree.  Every negated a-box starts a window chain: an
initial window whose first part carries the diamond body, then repeated
continuations whose first parts must all be satisfiable.  An infinite such
chain would witness the diamond outright; because windows over one anchor
form a finite space, a chain that repeats a window can be looped instead.

One depth-first search decides each chain: it accepts on the first window
repeated along the current chain (a lasso), which the witness loops.  The
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
one frame per window on the current chain, whose continuations it reads
as a stream: one at a time, never kept past the frame.  The memo is keyed
on modal parts, and a hit reuses the cached children under the set's own
members, so the witness is the one a search without it would build.
Saturation families are streams too: the search draws a family's members
one at a time and stops at the first satisfiable one.

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


@dataclass
class SatStats:
    """The search's mutable counters; results carry them as_dict().

    saturations counts the saturations the search tried: the members it
    drew from the top-level set's family and from each b-diamond seed's,
    which it stops drawing at the first satisfiable one (window parts,
    enumerated by the windows module, are not counted).  windows counts
    windows entered across all chain searches, max_depth is the deepest
    recursive successor problem the search solved rather than read from a
    memo (the root counts as depth 0).
    """

    saturations: int = 0
    windows: int = 0
    max_depth: int = 0

    def as_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "saturations": self.saturations,
            "windows": self.windows,
        }


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
    solve; each chain search in progress adds one frame per window on its
    current chain (see lasso_chain)."""

    def __init__(self, memo: bool = True):
        self.memo_enabled = memo
        # Solved modal parts (see _modal_part).
        self.modal_memo: dict[_ModalPart, Optional[Trace]] = {}
        self.stats = SatStats()
        # Each seed's closure and rule table, built once per solve.
        self.tables: Tables = {}

    # -- saturation choice points ------------------------------------------

    def family(self, seed: frozenset[Formula]) -> Iterator[frozenset[Formula]]:
        """The seed's saturations as a stream, each counted as it is drawn."""
        for members in saturations(seed, self.tables):
            self.stats.saturations += 1
            yield members

    # -- main recursion ----------------------------------------------------

    def sat_members(self, members: frozenset[Formula], depth: int) -> Optional[Trace]:
        part = _modal_part(members)
        if self.memo_enabled and part in self.modal_memo:
            cached = self.modal_memo[part]
            if cached is None:
                return None
            return Trace(members, cached.b_children, cached.a_chains)
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        _, boxb, diamonds_a, diamonds_b, _ = part
        node: Optional[Trace] = Trace(members)
        for body in diamonds_b:
            seed = frozenset({Not(body)}) | boxb
            child = None
            for cand in self.family(seed):
                child = self.sat_members(cand, depth + 1)
                if child is not None:
                    break
            if child is None:
                node = None
                break
            node.b_children.append(child)
        if node is not None:
            for body in diamonds_a:
                chain = None
                for start in _windows.initial_windows(members, Not(body), self.tables):
                    self.stats.windows += 1
                    chain = self.lasso_chain(start, depth)
                    if chain is not None:
                        break
                if chain is None:
                    node = None
                    break
                node.a_chains.append(chain)
        if self.memo_enabled:
            self.modal_memo[part] = node
        return node

    # -- window chains -----------------------------------------------------

    def lasso_chain(self, start: _windows.Window, depth: int) -> Optional[ChainWitness]:
        """Accept on the first window repeated along the current chain.

        The stack holds one frame per window on the current chain: its
        parts, its head's trace and its live stream of continuations, from
        which the search draws the next window only when it needs one.
        Returns None once it has walked every repetition-free chain from
        start, of which there are finitely many (see the module docstring).
        """
        first = self.sat_members(start.head, depth + 1)
        if first is None:
            return None
        stack = [(start.parts, first, _windows.continuations(start, self.tables))]
        seen = {start.parts: 0}
        while stack:
            nxt = next(stack[-1][2], None)
            if nxt is None:
                del seen[stack.pop()[0]]
                continue
            self.stats.windows += 1
            node = self.sat_members(nxt.head, depth + 1)
            if node is None:
                continue
            if nxt.parts in seen:
                return ChainWitness([head for _, head, _ in stack], seen[nxt.parts])
            seen[nxt.parts] = len(stack)
            stack.append((nxt.parts, node, _windows.continuations(nxt, self.tables)))
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
    for cand in search.family(targets):
        trace = search.sat_members(cand, 0)
        if trace is not None:
            model = _verified_witness(trace, targets)
            return SatResult(SAT, model, search.stats.as_dict())
    return SatResult(UNSAT, None, search.stats.as_dict())
