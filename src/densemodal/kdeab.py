"""Satisfiability over weakly dense bimodal frames.

A finite formula set is satisfiable exactly when one of its saturations is.
For a saturation, every negated b-box spawns an ordinary successor problem
of strictly smaller degree.  Every negated a-box starts a window chain: an
initial window whose first part carries the diamond body, then repeated
continuations whose first parts must all be satisfiable.  An infinite such
chain would witness the diamond outright; because windows over one anchor
form a finite space, a chain that repeats a window can be looped instead.

One depth-first search decides each chain: it accepts on the first window
repeated along the current chain (a lasso) and otherwise reports how many
windows its longest chain had.  Both stopping rules read that one search.
Lasso mode accepts on a lasso.  Counter mode, the paper's pigeonhole rule,
accepts once a chain of budget many windows exists, which holds exactly
when there is a lasso (it unrolls to any length) or the longest chain
reaches the budget: without a lasso every chain is repetition-free, and the
search has walked them all.  Full solves take the budget from
counter_bound, which exceeds the number of distinct windows, so there the
two rules accept the same chains with the same lasso witness.

A solve holds its memo, its seed tables and, per chain search in progress,
one frame per window on the current chain, whose continuations it reads
as a stream: one at a time, never kept past the frame.

Every SAT verdict is converted into an explicit finite model (worlds are
the distinct saturations the accepted search touched, chains close their
loops with b-edges) and verified against the model checker before being
reported; a verdict whose witness fails verification raises InvariantError
rather than returning.  Results carry the search counters as the dict that
`solve --stats` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InvariantError
from .formula import (
    Atom,
    Box,
    Formula,
    MOD_A,
    MOD_B,
    Not,
    box_inverse,
    set_degree,
    sf,
    sort_key,
)
from .oracle import WEAKLY_DENSE, KripkeModel, verify
# kdeab does not call these; densebench/layers.py wraps them as kdeab call sites.
from .oracle import is_weakly_dense, model_check  # noqa: F401
from .saturation import Saturation, Tables, is_saturation_of, saturation_family
from . import windows as _windows

SAT = "SAT"
UNSAT = "UNSAT"

LASSO = "lasso"
COUNTER = "counter"


def counter_bound(members: Iterable[Formula]) -> int:
    """Counter-mode budget for an anchor: 2**(M*(d+1)).

    M counts sf(anchor) and d is the anchor's degree.  Each of a
    window's d+1 parts is a clash-free subset of that universe, and the
    universe holds the anchor's negated a-box beside its box, so there are
    fewer than 2**M choices per part: the bound exceeds the number of
    distinct windows, and no repetition-free chain reaches it.
    """
    members = frozenset(members)
    m = len(sf(members))
    return 2 ** (m * (set_degree(members) + 1))


@dataclass(frozen=True)
class BoundPolicy:
    """How a window chain is allowed to stop.

    Both modes read the same lasso search (see the module docstring).
    LASSO accepts on a repeated window.  COUNTER accepts once budget many
    windows with satisfiable heads line up; with counter_bound of the
    anchor as the budget, that accepts the same chains as LASSO.
    """

    mode: str = LASSO

    def __post_init__(self) -> None:
        if self.mode not in (LASSO, COUNTER):
            raise ValueError(f"unknown bound mode {self.mode!r}")


@dataclass
class SatStats:
    """The search's mutable counters; results carry them as_dict().

    saturations sums the sizes of the saturation families the search
    computes: the top-level set's and each b-diamond seed's, whether or not
    every member is tried (window parts, enumerated by the windows module,
    are not counted).  windows counts windows entered across all chain
    searches, max_depth is the deepest recursive successor problem (the
    root counts as depth 0).
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


def _diamond_bodies(members: frozenset[Formula], modality: str) -> list[Formula]:
    bodies = [
        f.child.child
        for f in members
        if isinstance(f, Not)
        and isinstance(f.child, Box)
        and f.child.modality == modality
    ]
    return sorted(bodies, key=sort_key)


class _Search:
    """One solve.  Its memo, seed tables and counters live as long as the
    solve; each chain search in progress adds one frame per window on its
    current chain (see lasso_chain)."""

    def __init__(self, policy: BoundPolicy, memo: bool = True):
        self.policy = policy
        self.memo_enabled = memo
        self.memo: dict[frozenset[Formula], Optional[Trace]] = {}
        self.stats = SatStats()
        # Each seed's closure and rule table, built once per solve.
        self.tables: Tables = {}

    # -- saturation choice points ------------------------------------------

    def family(self, seed: frozenset[Formula]) -> tuple[Saturation, ...]:
        fam = saturation_family(seed, self.tables)
        self.stats.saturations += len(fam)
        return fam

    # -- main recursion ----------------------------------------------------

    def sat_members(self, members: frozenset[Formula], depth: int) -> Optional[Trace]:
        if self.memo_enabled and members in self.memo:
            return self.memo[members]
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        node: Optional[Trace] = Trace(members)
        for body in _diamond_bodies(members, MOD_B):
            seed = frozenset({Not(body)}) | box_inverse(members, MOD_B)
            child = None
            for cand in self.family(seed):
                child = self.sat_members(cand.members, depth + 1)
                if child is not None:
                    break
            if child is None:
                node = None
                break
            node.b_children.append(child)
        if node is not None:
            anchor = Saturation(members, members)
            for body in _diamond_bodies(members, MOD_A):
                chain = None
                for start in _windows.initial_windows(anchor, Not(body), self.tables):
                    self.stats.windows += 1
                    chain, longest = self.lasso_chain(start, depth)
                    if chain is not None:
                        break
                    if self.policy.mode == COUNTER and longest >= counter_bound(members):
                        raise InvariantError(
                            "a repetition-free window chain reached the counter bound; "
                            "the bound is below the true window count"
                        )
                if chain is None:
                    node = None
                    break
                node.a_chains.append(chain)
        if self.memo_enabled:
            self.memo[members] = node
        return node

    # -- window chains -----------------------------------------------------

    def lasso_chain(
        self, start: _windows.Window, depth: int
    ) -> tuple[Optional[ChainWitness], int]:
        """Accept on the first window repeated along the current chain.

        The stack holds one frame per window on the current chain: its
        parts, its head's trace and its live stream of continuations, from
        which the search draws the next window only when it needs one.
        Also returns how many windows the longest chain walked had; without
        a lasso the search has walked every chain, so that is the longest
        chain from start.
        """
        first = self.sat_members(start.head, depth + 1)
        if first is None:
            return None, 0
        longest = 1
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
                return ChainWitness([head for _, head, _ in stack], seen[nxt.parts]), longest
            seen[nxt.parts] = len(stack)
            stack.append((nxt.parts, node, _windows.continuations(nxt, self.tables)))
            longest = max(longest, len(stack))
        return None, longest


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


def sat_set(
    formulas: Iterable[Formula],
    policy: Optional[BoundPolicy] = None,
    memo: bool = True,
) -> SatResult:
    """Satisfiability of a finite bimodal formula set over weakly dense frames.

    SAT exactly when some saturation of the set is satisfiable; the verdict
    carries a verified witness model and search statistics.
    """
    targets = frozenset(formulas)
    search = _Search(policy or BoundPolicy(), memo)
    for cand in search.family(targets):
        trace = search.sat_members(cand.members, 0)
        if trace is not None:
            model = _verified_witness(trace, targets)
            return SatResult(SAT, model, search.stats.as_dict())
    return SatResult(UNSAT, None, search.stats.as_dict())


def sat_saturation(
    saturation: Saturation,
    policy: Optional[BoundPolicy] = None,
    memo: bool = True,
) -> SatResult:
    """Satisfiability of a single saturation (diamond by diamond)."""
    if not is_saturation_of(saturation.members, saturation.seed):
        raise ValueError("not a valid saturation of its seed")
    search = _Search(policy or BoundPolicy(), memo)
    trace = search.sat_members(saturation.members, 0)
    if trace is None:
        return SatResult(UNSAT, None, search.stats.as_dict())
    model = _verified_witness(trace, saturation.members)
    return SatResult(SAT, model, search.stats.as_dict())


def sat_window_chain(
    window: _windows.Window,
    policy: Optional[BoundPolicy] = None,
    memo: bool = True,
    *,
    budget: Optional[int] = None,
) -> bool:
    """Whether a window chain starting here can be completed.

    Both modes read one lasso search: lasso mode accepts on a lasso,
    counter mode also when the longest chain reaches the budget, which is
    exact because without a lasso the search walked every chain.  budget
    is counter mode's chain length, counter_bound of the anchor unless
    given; a budget of 0 always accepts, and lasso mode does not read it.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must not be negative, got {budget}")
    policy = policy or BoundPolicy()
    chain, longest = _Search(policy, memo).lasso_chain(window, 0)
    if chain is not None or policy.mode == LASSO:
        return chain is not None
    if budget is None:
        budget = counter_bound(window.anchor.members)
    return longest >= budget
