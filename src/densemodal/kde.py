"""Fixpoint decision procedure for the unimodal logic of dense frames.

The subformulas of the target are enumerated children-first.  A profile is
a bit vector over that enumeration that respects the Boolean structure
(falsum bit 0, negation flips, conjunction takes the minimum); atom and box
bits are free.  Starting from the frame of all profiles with the full
box-respecting relation, one refinement step removes profiles whose false
boxes have no falsifying successor and edges without a midpoint.  The
refinement shrinks a finite structure, so it reaches a fixpoint; the
fixpoint frame is dense, its profiles satisfy exactly their own bits, and
the target is satisfiable over dense frames exactly when some surviving
profile has the target bit set.

A profile's successors in the initial frame are exactly the profiles that
set the body of each box it sets, so profiles that set the same boxes
share one successor list.  Refinement keeps the input's edge tuples and
tests midpoints by reach: x's two-step reach depends only on x's
successor set, so each distinct successor set gets one reach and an edge
(x, y) survives when y is in it.  A round that keeps every profile, and
finds every successor set within its own reach, removes nothing: it
returns its input object, and that marks the fixpoint.

Validity is satisfiability of the negation.  The index of ~phi is phi's
index plus ~phi itself, which adds no free bit, so its profiles are phi's
with a complement bit appended: the frames, counts and the lexicographic
order agree, and the least profile setting ~phi is the least profile
clearing phi.  A `KdeResult` reads its fixpoint frame as one model, once:
world w is the w-th profile in lexicographic order, and the root is the
least profile setting the target bit, else the least profile.  The witness
is that model when its root sets the bit, model-checked and frame-checked
for density first (a failure raises InvariantError); the whole-frame
checks read the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import InvariantError
from .formula import (
    And,
    Atom,
    Box,
    Falsum,
    Formula,
    Not,
    is_unimodal,
)
from .kdeab import SAT, UNSAT, SatResult
from .oracle import DENSE, KripkeModel, ModelTables, verify

Profile = tuple[int, ...]

# Free bits live at atom and box positions; the profile count is 2**free
# and the initial edge count up to 4**free.  Each further bit quadruples the
# work: the 12-bit ladder rung (4,096 profiles, 4,515,840 edges) answers in
# about 20 s with a 0.68 GB peak on a shared 2-vCPU host, both set by the
# fixpoint, so 13 bits could not answer in any time a caller would wait.
FREE_BIT_LIMIT = 12


class SubformulaIndex:
    """Children-first enumeration of the subformulas of one target."""

    def __init__(self, entries: list[Formula]):
        self.entries = tuple(entries)
        self.n = len(entries)
        self.position = {f: i for i, f in enumerate(entries)}
        self.box_pairs = [
            (i, self.position[f.child])
            for i, f in enumerate(entries)
            if isinstance(f, Box)
        ]
        self.free_positions = [
            i for i, f in enumerate(entries) if isinstance(f, (Atom, Box))
        ]

    @property
    def target(self) -> Formula:
        return self.entries[-1]


def build_index(phi: Formula) -> SubformulaIndex:
    """Deduplicating post-order traversal; the target comes last."""
    if not is_unimodal(phi):
        raise ValueError("the dense-logic solver handles unimodal formulas only")
    entries: list[Formula] = []
    seen: set[Formula] = set()

    def walk(f: Formula) -> None:
        if f in seen:
            return
        if isinstance(f, Not):
            walk(f.child)
        elif isinstance(f, And):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Box):
            walk(f.child)
        seen.add(f)
        entries.append(f)

    walk(phi)
    return SubformulaIndex(entries)


@dataclass(frozen=True)
class ProfileFrame:
    """A set of profiles plus a box-respecting relation between them."""

    profiles: frozenset[Profile]
    rel: frozenset[tuple[Profile, Profile]]


def profiles(ix: SubformulaIndex) -> Iterator[Profile]:
    """All structure-respecting bit vectors, free bits in ascending order."""
    free = ix.free_positions
    for choice in product((0, 1), repeat=len(free)):
        assigned = dict(zip(free, choice))
        bits: list[int] = []
        for i, f in enumerate(ix.entries):
            if isinstance(f, (Atom, Box)):
                bits.append(assigned[i])
            elif isinstance(f, Falsum):
                bits.append(0)
            elif isinstance(f, Not):
                bits.append(1 - bits[ix.position[f.child]])
            else:
                bits.append(min(bits[ix.position[f.left]], bits[ix.position[f.right]]))
        yield tuple(bits)


def initial_frame(ix: SubformulaIndex) -> ProfileFrame:
    """All profiles with every box-respecting edge.

    A profile x must point to exactly the profiles that set the body bit j
    of every box i that x sets.  Profiles with the same required positions
    share one successor list, computed once.
    """
    if len(ix.free_positions) > FREE_BIT_LIMIT:
        raise ValueError(
            f"{len(ix.free_positions)} free bits exceed the limit of "
            f"{FREE_BIT_LIMIT}; the profile set would have 2**{len(ix.free_positions)} elements"
        )
    ps = list(profiles(ix))
    groups: dict[tuple[int, ...], list[Profile]] = {}
    for x in ps:
        groups.setdefault(tuple(j for i, j in ix.box_pairs if x[i]), []).append(x)
    succs = {required: [y for y in ps if all(y[j] for j in required)] for required in groups}
    rel = frozenset((x, y) for required, xs in groups.items() for x in xs for y in succs[required])
    return ProfileFrame(frozenset(ps), rel)


def refine_frame(frame: ProfileFrame, ix: SubformulaIndex) -> ProfileFrame:
    """One pruning step; the output is always contained in the input.

    A profile survives when each of its false boxes has a successor
    falsifying the body.  An edge (x, y) survives when x survives and y is
    in x's reach: the surviving profiles that some successor z of x points
    to.  The midpoint z ranges over the whole input frame, survivor or not.
    The reach depends on x only through its successor set, so it is
    computed once per distinct successor set among the survivors.  In a
    frame reached from `initial_frame`, profiles with the same box
    requirements still have the same successors, so that is once per
    requirement group.  Surviving edges are the input's own tuples.  When
    every profile survives and every distinct successor set lies within
    its reach, no edge is removed either, and the input frame itself is
    returned without rebuilding anything; otherwise the result is a new
    frame.
    """
    succ: dict[Profile, set[Profile]] = {p: set() for p in frame.profiles}
    for x, y in frame.rel:
        succ[x].add(y)
    keep = set()
    for p in frame.profiles:
        ok = True
        for i, j in ix.box_pairs:
            if p[i] == 0 and not any(q[j] == 0 for q in succ[p]):
                ok = False
                break
        if ok:
            keep.add(p)
    by_successors: dict[frozenset[Profile], set[Profile]] = {}
    reach: dict[Profile, set[Profile]] = {}
    for x in keep:
        successors = frozenset(succ[x])
        if successors not in by_successors:
            by_successors[successors] = set().union(*[succ[z] for z in successors]) & keep
        reach[x] = by_successors[successors]
    if len(keep) == len(frame.profiles) and all(s <= r for s, r in by_successors.items()):
        return frame
    rel = frozenset(edge for edge in frame.rel if edge[1] in reach.get(edge[0], ()))
    return ProfileFrame(frozenset(keep), rel)


def fixpoint(phi: Formula, ix: Optional[SubformulaIndex] = None) -> tuple[ProfileFrame, int]:
    """Iterate refinement to stability; returns the frame and the step count.

    The step count is the least k with refine^(k+1) == refine^k, so
    refine_frame runs k + 1 times.  refine_frame returns its input object
    exactly when it removes nothing, so the loop stops on identity.  The
    resulting frame is never empty; emptiness would invalidate the whole
    procedure, so it is checked on every run.  `ix` is phi's index when the
    caller has already built it.
    """
    if ix is None:
        ix = build_index(phi)
    frame = initial_frame(ix)
    iterations = 0
    while True:
        refined = refine_frame(frame, ix)
        if refined is frame:
            break
        frame = refined
        iterations += 1
    if not frame.profiles:
        raise InvariantError(f"empty fixpoint frame for {phi}")
    return frame, iterations


def _bit_mask(order: Sequence[Profile], i: int) -> int:
    """The worlds whose profile sets bit i, world w being order[w]."""
    return sum(1 << w for w, p in enumerate(order) if p[i])


def frame_model(frame: ProfileFrame, ix: SubformulaIndex, root: Profile) -> KripkeModel:
    """Read a profile frame as a pointed Kripke model.

    Worlds are the profiles in lexicographic order; an atom holds where its
    bit is set.  The edges go straight into one successor mask per world.
    """
    order = sorted(frame.profiles)
    ids = {p: i for i, p in enumerate(order)}
    succ = [0] * len(order)
    for x, y in frame.rel:
        succ[ids[x]] |= 1 << ids[y]
    valuation = {
        f.name: _bit_mask(order, i) for i, f in enumerate(ix.entries) if isinstance(f, Atom)
    }
    return KripkeModel.from_masks(range(len(order)), succ, [0] * len(order), valuation, ids[root])


@dataclass(frozen=True)
class KdeResult:
    """One fixpoint run over one target: the verdict, the model and the stats all read it."""

    index: SubformulaIndex
    frame: ProfileFrame
    iterations: int

    @property
    def stats(self) -> dict:
        """The counters `solve --logic kde --stats` prints."""
        return {
            "edges": len(self.frame.rel),
            "iterations": self.iterations,
            "profiles": len(self.frame.profiles),
        }

    @cached_property
    def _root(self) -> Profile:
        """The least profile setting the target bit, or the least profile when none does."""
        return min([p for p in self.frame.profiles if p[-1]] or self.frame.profiles)

    @cached_property
    def model(self) -> KripkeModel:
        """The fixpoint frame read as a model, built once, pointed at the root profile."""
        return frame_model(self.frame, self.index, self._root)

    def witness(self) -> Optional[KripkeModel]:
        """The model when its root sets the target bit, else None.

        The model is checked before it is returned: the target must hold at
        its root and its frame must be dense, or InvariantError is raised.
        """
        if not self._root[-1]:
            return None
        verify(self.model, [self.index.target], DENSE, "kde witness")
        return self.model

    def frame_failures(self) -> list[str]:
        """Whole-frame checks: density, and each entry true exactly where its bit is set."""
        phi = self.index.target
        tables = ModelTables(self.model)
        failures = [] if tables.in_class(DENSE) else [f"fixpoint frame not dense: {phi}"]
        order = sorted(self.frame.profiles)
        for i, entry in enumerate(self.index.entries):
            if tables.truth(entry) != _bit_mask(order, i):
                failures.append(f"profile bit mismatch: {phi} at entry {i}")
        return failures


def kde_solve(phi: Formula) -> KdeResult:
    """Build phi's index and run the fixpoint over it, once."""
    ix = build_index(phi)
    frame, iterations = fixpoint(phi, ix)
    return KdeResult(ix, frame, iterations)


def kde_sat(phi: Formula) -> SatResult:
    """Satisfiability over dense frames, with a checked witness and the stats.

    SAT exactly when some surviving profile sets the target bit; the witness
    is the fixpoint model pointed at the lexicographically smallest such
    profile, model-checked and frame-checked by KdeResult.witness.
    """
    result = kde_solve(phi)
    witness = result.witness()
    return SatResult(UNSAT if witness is None else SAT, witness, result.stats)


def kde_valid(phi: Formula) -> bool:
    """Validity over dense frames: the negation is unsatisfiable."""
    return kde_sat(Not(phi)).verdict == UNSAT


def counter_model(phi: Formula) -> Optional[KripkeModel]:
    """For an invalid formula, the checked witness of its negation."""
    return kde_sat(Not(phi)).witness
