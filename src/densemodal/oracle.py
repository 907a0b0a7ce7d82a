"""Ground truth at desk scale.

Explicit finite pointed Kripke models, a model checker that evaluates each
subformula once over the whole model, frame-class predicates (density is
weak density with rb read as ra), exhaustive bounded model search, and a
standalone validity tableau for plain K.  Nothing in here shares search
machinery with the solver modules; this module is the independent side of
every cross-check.

A `KripkeModel` holds its worlds in ascending order and each relation in
one form: one int successor mask per world, bit i standing for
`worlds[i]`, so an int is a set of worlds.  It is immutable; `ra` and
`rb` are read-only views of those masks as sets of edges.  Both solvers
and bounded_search build their models from masks with `from_masks`; only
`model_from_json` takes edge sets.  One JSON writer, `model_json_text`,
reads the masks bit by bit, which is world-id order.

Checks run set-at-a-time on those bitsets.  `ModelTables` holds one
model's truth sets.  A box holds at w when w's successor mask has no
bit outside the body's truth set.  An ra edge (w, t) has a midpoint when
t is in the union of the rb masks of w's ra successors: `_weakly_dense`
is that test over successor masks, the only density test here.  It reads
a model's tables in `ModelTables.in_class` and filters bounded_search's
frame tables.  bounded_search enumerates, at each world count n, only the
frames in the class in which some world reaches every world through ra
and rb together.  A model on any other frame has a generated submodel on
fewer worlds, so the first model found is the one a search over every
frame finds.  `verify` builds the tables once, checks every formula at
the root and then the frame class, and raises InvariantError naming the
first failure; both solvers' witness checks and bounded_search's own
check call it.  `model_check`, `truth_set`, `is_dense` and
`is_weakly_dense` build the same tables per call.
"""

from __future__ import annotations

import json
from collections.abc import Set as AbstractSet
from functools import lru_cache
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InvariantError
from .formula import (
    And,
    Atom,
    Box,
    FALSUM,
    Falsum,
    Formula,
    MOD_A,
    Not,
    atom_names,
    box_inverse,
    is_unimodal,
    sort_key,
)

ALL = "all"
DENSE = "dense"
WEAKLY_DENSE = "weakly_dense"

# Hard cap on the enumeration space of bounded_search: total bits across
# relation masks and the valuation mask.  A refutation at the cap walks
# every generated model: `oracle --class all --max-worlds 4` over two
# atoms (16 + 8 bits) takes 85-93 s of CLI wall time with a 23 MB peak
# RSS, and a bimodal all-class search at 3 worlds over two atoms (9 + 9 +
# 6 bits) 115-118 s with 16 MB, on a shared 2-vCPU host.  Each further bit
# doubles the space.
_SEARCH_BIT_LIMIT = 24


class KripkeModel:
    """Finite pointed model; unimodal models simply leave rb empty.

    The worlds are held in ascending order, and bit i of every mask stands
    for `worlds[i]`, so an int is a set of worlds.  Each relation is held
    once, as one int successor mask per world, and each atom's worlds as
    one int.  The public constructor takes edge sets and world-id sets;
    `from_masks` takes the masks themselves.  Models are immutable: `ra`
    and `rb` are read-only views of the masks as sets of (s, t) world-id
    pairs, and `valuation` is a read-only map from each atom to its worlds
    as a frozenset.
    """

    __slots__ = ("worlds", "root", "position", "succ_a", "succ_b", "val_masks")

    def __init__(
        self,
        worlds: Iterable[int],
        ra: Iterable[tuple[int, int]],
        rb: Iterable[tuple[int, int]],
        valuation: Mapping[str, Iterable[int]],
        root: int,
    ):
        """Convert the edges and world sets to masks, checking each once."""
        worlds, position = _positions(worlds, root)
        succ_a = _successors(position, ra)
        succ_b = _successors(position, rb)
        val_masks = {}
        for name, holds in valuation.items():
            mask = 0
            for w in holds:
                if w not in position:
                    raise ValueError(f"valuation of {name!r} outside the world set")
                mask |= 1 << position[w]
            val_masks[name] = mask
        self._store(worlds, position, succ_a, succ_b, val_masks, root)

    @classmethod
    def from_masks(
        cls,
        worlds: Iterable[int],
        succ_a: Iterable[int],
        succ_b: Iterable[int],
        val_masks: Mapping[str, int],
        root: int,
    ) -> KripkeModel:
        """A model from one successor mask per world and relation and one mask per atom.

        The worlds must be in ascending order, and bit i of every mask
        stands for `worlds[i]`; a mask with a bit past the world count
        raises ValueError.
        """
        given = tuple(worlds)
        worlds, position = _positions(given, root)
        if worlds != given:
            raise ValueError("worlds must be in ascending order")
        succ_a, succ_b, n = tuple(succ_a), tuple(succ_b), len(worlds)
        if len(succ_a) != n or len(succ_b) != n:
            raise ValueError("a model needs one successor mask per world")
        if any(m >> n for m in (*succ_a, *succ_b, *val_masks.values())):
            raise ValueError("mask bit past the world count")
        model = object.__new__(cls)
        model._store(worlds, position, succ_a, succ_b, dict(val_masks), root)
        return model

    def _store(self, worlds, position, succ_a, succ_b, val_masks, root) -> None:
        store = object.__setattr__
        store(self, "worlds", worlds)
        store(self, "position", MappingProxyType(position))
        store(self, "succ_a", succ_a)
        store(self, "succ_b", succ_b)
        store(self, "val_masks", MappingProxyType(val_masks))
        store(self, "root", root)

    def __setattr__(self, name, value=None):
        raise AttributeError("KripkeModel is immutable")

    __delattr__ = __setattr__

    @property
    def ra(self) -> _Edges:
        return _Edges(self, self.succ_a)

    @property
    def rb(self) -> _Edges:
        return _Edges(self, self.succ_b)

    @property
    def valuation(self) -> Mapping[str, frozenset[int]]:
        return MappingProxyType({
            name: frozenset(_members(mask, self.worlds)) for name, mask in self.val_masks.items()
        })

    def __eq__(self, other):
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.worlds, self.root, self.succ_a, self.succ_b, self.val_masks) == (
            other.worlds, other.root, other.succ_a, other.succ_b, other.val_masks
        )

    def __reduce__(self):
        return KripkeModel.from_masks, (
            self.worlds, self.succ_a, self.succ_b, dict(self.val_masks), self.root
        )

    def __repr__(self) -> str:
        return (
            f"KripkeModel(worlds={list(self.worlds)}, ra={list(self.ra)}, "
            f"rb={list(self.rb)}, valuation={dict(self.valuation)}, root={self.root})"
        )


def _positions(worlds: Iterable[int], root: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The sorted worlds and their bit positions; worlds and root must be ints, not bools."""
    worlds = tuple(worlds)
    if not worlds:
        raise ValueError("a model needs at least one world")
    if any(type(w) is not int for w in (*worlds, root)):
        raise ValueError("worlds and the root must be ints")
    worlds = tuple(sorted(worlds))
    position = {w: i for i, w in enumerate(worlds)}
    if root not in position:
        raise ValueError("root must be a world")
    if len(position) != len(worlds):
        raise ValueError("duplicate worlds")
    return worlds, position


def _successors(position: dict[int, int], rel: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    succ = [0] * len(position)
    try:
        for s, t in rel:
            succ[position[s]] |= 1 << position[t]
    except KeyError:
        raise ValueError("relation edge outside the world set") from None
    return tuple(succ)


# Reads a binary numeral, least significant digit first, as 0/1 selectors.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int, items: Sequence) -> Iterator:
    """The items at the set bits of mask, in position order."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_SELECTORS))


class _Edges(AbstractSet):
    """A relation as a read-only set of (s, t) world-id pairs over successor masks."""

    __slots__ = ("_model", "_succ")

    def __init__(self, model: KripkeModel, succ: tuple[int, ...]):
        self._model = model
        self._succ = succ

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self) -> int:
        return sum(m.bit_count() for m in self._succ)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        worlds = self._model.worlds
        for s, mask in zip(worlds, self._succ):
            for t in _members(mask, worlds):
                yield s, t

    def __contains__(self, edge) -> bool:
        position = self._model.position
        try:
            s, t = edge
            return bool(self._succ[position[s]] >> position[t] & 1)
        except (KeyError, TypeError, ValueError):
            return False

    def __repr__(self) -> str:
        return repr(set(self))


def _weakly_dense(succ_a: Sequence[int], succ_b: Sequence[int]) -> bool:
    """Every ra edge (w, t) has a midpoint u with w ra u and u rb t.

    succ_a and succ_b are successor masks indexed by world.  Worlds with
    the same ra successors share one midpoint reach, the union of their
    successors' rb successors.  Density is this test with rb read as ra.
    """
    reach_of: dict[int, int] = {}
    for succ in succ_a:
        reach = reach_of.get(succ)
        if reach is None:
            reach = 0
            for r in _members(succ, succ_b):
                reach |= r
            reach_of[succ] = reach
        if succ & ~reach:
            return False
    return True


class ModelTables:
    """One model's truth sets, over the model's own successor bitsets.

    Bit i of an int stands for `model.worlds[i]`, so an int is a set of
    worlds.  Every truth set and frame test on a checked model reads one
    set of tables, and `truth` evaluates each distinct subformula once over
    all worlds at a time.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self.full = (1 << len(model.worlds)) - 1
        self._memo: dict[Formula, int] = {}

    def worlds_in(self, mask: int) -> frozenset[int]:
        return frozenset(_members(mask, self.model.worlds))

    def truth(self, f: Formula) -> int:
        """The worlds satisfying f; a box holds where no successor falls outside its body."""
        got = self._memo.get(f)
        if got is not None:
            return got
        if isinstance(f, Atom):
            out = self.model.val_masks.get(f.name, 0)
        elif isinstance(f, Falsum):
            out = 0
        elif isinstance(f, Not):
            out = self.full & ~self.truth(f.child)
        elif isinstance(f, And):
            out = self.truth(f.left) & self.truth(f.right)
        else:
            succ = self.model.succ_a if f.modality == MOD_A else self.model.succ_b
            outside = self.full & ~self.truth(f.child)
            out = 0
            for i, s in enumerate(succ):
                if not s & outside:
                    out |= 1 << i
        self._memo[f] = out
        return out

    def in_class(self, frame_class: str) -> bool:
        """Frame membership; density is weak density with rb read as ra."""
        succ_a = self.model.succ_a
        if frame_class == DENSE:
            return _weakly_dense(succ_a, succ_a)
        if frame_class == WEAKLY_DENSE:
            return _weakly_dense(succ_a, self.model.succ_b)
        return True


def verify(model: KripkeModel, formulas: Iterable[Formula], frame_class: str, label: str) -> None:
    """Check every formula at the root, then the frame class, on one set of tables.

    Raises InvariantError naming the first failure, prefixed by label:
    "<label> fails model_check on <f>" or "<label> frame is not <class>".
    """
    tables = ModelTables(model)
    root = 1 << model.position[model.root]
    for f in formulas:
        if not tables.truth(f) & root:
            raise InvariantError(f"{label} fails model_check on {f}")
    if not tables.in_class(frame_class):
        raise InvariantError(f"{label} frame is not {frame_class.replace('_', ' ')}")


def model_check(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Standard satisfaction at a world: membership in phi's truth set."""
    if world not in model.position:
        raise ValueError(f"unknown world {world!r}")
    return bool((ModelTables(model).truth(phi) >> model.position[world]) & 1)


def truth_set(model: KripkeModel, phi: Formula) -> frozenset[int]:
    """All worlds satisfying phi, computed bottom-up over subformulas.

    Each distinct subformula is evaluated once, so the cost is linear in
    the number of subformulas times the size of the model.
    """
    tables = ModelTables(model)
    return tables.worlds_in(tables.truth(phi))


def is_dense(model: KripkeModel) -> bool:
    """Every ra edge has an ra-ra midpoint: weak density with rb read as ra."""
    return ModelTables(model).in_class(DENSE)


def is_weakly_dense(model: KripkeModel) -> bool:
    """Every ra edge has an ra-rb midpoint."""
    return ModelTables(model).in_class(WEAKLY_DENSE)


# --------------------------------------------------------------------------
# Bounded model search.
#
# Worlds are 0..n-1.  A relation is a bitmask over pairs ordered (0,0),
# (0,1), ..., (n-1,n-1); a valuation is a bitmask with bit (i*n + w) set
# when the i-th atom holds at world w.  Enumeration is n ascending, then
# ra mask ascending, rb mask ascending, valuation ascending, root
# ascending, so "the first model" is well defined and reproducible.
#
# Each n enumerates only generated frames: those in which some world
# reaches every world through ra and rb together.  A model on any other
# frame has a generated submodel on fewer worlds that keeps every
# formula's truth at its root and the frame's (weak) density, so a search
# that found nothing at fewer worlds finds nothing there either, and the
# first model is the one the full enumeration finds.  The union of two
# relations is the OR of their masks, so each frame costs one read of
# `_generators(n)`.  The frame tables are cut once per n from
# `_relations(n)` and kept for the life of the process: the dense
# relations as relation masks that index it, and the generated weakly
# dense pairs as successor masks.


# A relation on worlds 0..n-1 as successor masks, one per world.
_Succ = tuple[int, ...]


def _succ_masks(n: int, mask: int) -> _Succ:
    return tuple((mask >> (s * n)) & ((1 << n) - 1) for s in range(n))


@lru_cache(maxsize=None)
def _relations(n: int) -> tuple[_Succ, ...]:
    """Every relation on n worlds, in relation mask order."""
    return tuple(_succ_masks(n, m) for m in range(1 << (n * n)))


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[int, ...]:
    """For each relation mask on n worlds, the worlds that reach every world through it."""
    full, worlds = (1 << n) - 1, range(n)
    table = []
    for succ in _relations(n):
        # Warshall's closure on successor masks, each world reaching itself.
        reach = [s | 1 << w for w, s in enumerate(succ)]
        for k in worlds:
            bit, via = 1 << k, reach[k]
            for w in worlds:
                if reach[w] & bit:
                    reach[w] |= via
        table.append(sum(1 << w for w in worlds if reach[w] == full))
    return tuple(table)


@lru_cache(maxsize=None)
def _dense_relations(n: int) -> tuple[int, ...]:
    return tuple(m for m, s in enumerate(_relations(n)) if _weakly_dense(s, s))


@lru_cache(maxsize=None)
def _weakly_dense_pairs(n: int) -> tuple[tuple[_Succ, _Succ], ...]:
    """Every generated weakly dense (ra, rb) on n worlds, in enumeration order."""
    rels, generators = _relations(n), _generators(n)
    return tuple(
        (sa, sb)
        for a, sa in enumerate(rels)
        for b, sb in enumerate(rels)
        if generators[a | b] and _weakly_dense(sa, sb)
    )


def _frames(n: int, frame_class: str, bimodal: bool) -> Iterable[tuple[_Succ, _Succ]]:
    """(ra, rb) of every generated frame in the class on n worlds, in enumeration order.

    Unimodal searches pair every ra with the empty rb.
    """
    if frame_class == WEAKLY_DENSE:
        return _weakly_dense_pairs(n)
    rels, generators = _relations(n), _generators(n)
    ras = _dense_relations(n) if frame_class == DENSE else range(len(rels))
    rbs = range(len(rels)) if bimodal else (0,)
    return ((rels[a], rels[b]) for a in ras for b in rbs if generators[a | b])


def _eval_mask(
    f: Formula,
    val_masks: dict[str, int],
    succ_a: _Succ,
    succ_b: _Succ,
    n: int,
    full: int,
    memo: dict[Formula, int],
) -> int:
    got = memo.get(f)
    if got is not None:
        return got
    if isinstance(f, Atom):
        out = val_masks.get(f.name, 0)
    elif isinstance(f, Falsum):
        out = 0
    elif isinstance(f, Not):
        out = full & ~_eval_mask(f.child, val_masks, succ_a, succ_b, n, full, memo)
    elif isinstance(f, And):
        out = _eval_mask(
            f.left, val_masks, succ_a, succ_b, n, full, memo
        ) & _eval_mask(f.right, val_masks, succ_a, succ_b, n, full, memo)
    else:
        succ = succ_a if f.modality == MOD_A else succ_b
        inner = _eval_mask(f.child, val_masks, succ_a, succ_b, n, full, memo)
        out = 0
        for w in range(n):
            if succ[w] & ~inner == 0:
                out |= 1 << w
    memo[f] = out
    return out


def search_is_bimodal(formulas: Iterable[Formula], frame_class: str) -> bool:
    """Whether bounded_search enumerates rb for this query."""
    return frame_class == WEAKLY_DENSE or any(
        not is_unimodal(f) for f in formulas
    )


def bounded_search(
    formulas: Iterable[Formula],
    frame_class: str = ALL,
    max_worlds: int = 3,
    max_atoms: int = 2,
) -> Optional[KripkeModel]:
    """Exhaustively look for a pointed model of all the formulas.

    Returns the first model in the fixed enumeration order whose frame is in
    the requested class and whose root satisfies every formula, or None when
    no model with at most max_worlds worlds exists.  None is not a proof of
    unsatisfiability beyond the bound.  Raises ValueError when the space is
    too large to enumerate.

    Each n skips the frames in which no world reaches every world through
    ra and rb together.  A satisfying pointed model on n worlds whose root
    does not generate its frame has a generated submodel on fewer worlds,
    in the same class, that satisfies the same formulas at its root; the
    search reached that submodel first.  So the first model is the one a
    search over every frame finds, and its root generates its frame.
    """
    if frame_class not in (ALL, DENSE, WEAKLY_DENSE):
        raise ValueError(f"unknown frame class {frame_class!r}")
    targets = sorted(set(formulas), key=sort_key)
    names: list[str] = sorted(set().union(*(atom_names(f) for f in targets)) if targets else set())
    if len(names) > max_atoms:
        raise ValueError(f"{len(names)} atoms exceed max_atoms={max_atoms}")
    bimodal = search_is_bimodal(targets, frame_class)
    worst = max_worlds * max_worlds * (2 if bimodal else 1) + max_worlds * len(names)
    if worst > _SEARCH_BIT_LIMIT:
        raise ValueError(
            f"search space for {max_worlds} worlds needs {worst} bits "
            f"(limit {_SEARCH_BIT_LIMIT})"
        )
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for succ_a, succ_b in _frames(n, frame_class, bimodal):
            for val_mask in range(1 << (n * len(names))):
                val_masks = {
                    name: (val_mask >> (i * n)) & full
                    for i, name in enumerate(names)
                }
                memo: dict[Formula, int] = {}
                sat = full
                for f in targets:
                    sat &= _eval_mask(f, val_masks, succ_a, succ_b, n, full, memo)
                    if not sat:
                        break
                if not sat:
                    continue
                root = (sat & -sat).bit_length() - 1
                model = KripkeModel.from_masks(range(n), succ_a, succ_b, val_masks, root)
                # Double-entry: the bitmask search's model must pass the oracle's
                # own checks.  _eval_mask stays a separate evaluator from
                # ModelTables.truth for this check alone: if one were written in
                # terms of the other, the check would compare a function with itself.
                verify(model, targets, frame_class, "bounded_search result")
                return model
    return None


# --------------------------------------------------------------------------
# Validity in plain K, decided by a self-contained tableau.  Deliberately
# written without the saturation module so the two never share a bug.


def k_valid(phi: Formula) -> bool:
    if not is_unimodal(phi):
        raise ValueError("k_valid expects a unimodal formula")
    return not _k_sat(frozenset((Not(phi),)))


def _k_sat(branch: frozenset[Formula]) -> bool:
    if FALSUM in branch:
        return False
    if any(isinstance(f, Not) and f.child in branch for f in branch):
        return False
    for f in sorted(branch, key=sort_key):
        if isinstance(f, And):
            if f.left not in branch or f.right not in branch:
                return _k_sat(branch | {f.left, f.right})
        elif isinstance(f, Not):
            c = f.child
            if isinstance(c, Not) and c.child not in branch:
                return _k_sat(branch | {c.child})
            if isinstance(c, And):
                nl, nr = Not(c.left), Not(c.right)
                if nl not in branch and nr not in branch:
                    return _k_sat(branch | {nl}) or _k_sat(branch | {nr})
    # Saturated and open: every diamond spawns its own successor problem.
    obligations = box_inverse(branch, MOD_A)
    for f in sorted(branch, key=sort_key):
        if isinstance(f, Not) and isinstance(f.child, Box):
            if not _k_sat(frozenset({Not(f.child.child)}) | obligations):
                return False
    return True


# --------------------------------------------------------------------------
# JSON wire format: {"worlds": [...], "ra": [[s,t], ...], "rb": [...],
# "val": {"p": [...]}, "root": 0}.  Unimodal models omit "rb".  Worlds are
# held in ascending order, so reading the masks bit by bit lists worlds and
# edges in world-id order.


def model_from_json(data: dict) -> KripkeModel:
    return KripkeModel(
        worlds=data["worlds"],
        ra=data["ra"],
        rb=data.get("rb", []),
        valuation=data.get("val", {}),
        root=data["root"],
    )


def model_json_text(model: KripkeModel, include_rb: bool = True) -> str:
    """The model's JSON text, keys sorted; the one model writer.

    `json.loads` of it gives the dict form.  Worlds are ints, so the text
    is formatted straight from the masks: each world id is written once,
    and each successor mask becomes one run of edges; only atom names go
    through json.dumps.
    """
    names = [str(w) for w in model.worlds]

    def ints(mask) -> str:
        return "[" + ", ".join(_members(mask, names)) + "]"

    def pairs(succ) -> str:
        rows = (
            f"[{s}, " + f"], [{s}, ".join(_members(mask, names)) + "]"
            for s, mask in zip(names, succ)
            if mask
        )
        return "[" + ", ".join(rows) + "]"

    val = ", ".join(
        f"{json.dumps(name)}: {ints(mask)}" for name, mask in sorted(model.val_masks.items())
    )
    rb = f'"rb": {pairs(model.succ_b)}, ' if include_rb else ""
    return (
        f'{{"ra": {pairs(model.succ_a)}, {rb}"root": {model.root}, '
        f'"val": {{{val}}}, "worlds": [{", ".join(names)}]}}'
    )
