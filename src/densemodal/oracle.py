"""Ground truth at desk scale.

Explicit finite pointed Kripke models, a model checker that evaluates each
subformula once over the whole model, frame-class predicates (density is
weak density with rb read as ra), exhaustive bounded model search, and a
standalone validity tableau for plain K.  Nothing in here shares search
machinery with the solver modules; this module is the independent side of
every cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

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
# relation masks and the valuation mask.
_SEARCH_BIT_LIMIT = 24


@dataclass
class KripkeModel:
    """Finite pointed model; unimodal models simply leave rb empty."""

    worlds: list[int]
    ra: set[tuple[int, int]]
    rb: set[tuple[int, int]]
    valuation: dict[str, set[int]]
    root: int

    def __post_init__(self) -> None:
        ws = set(self.worlds)
        if not ws:
            raise ValueError("a model needs at least one world")
        if self.root not in ws:
            raise ValueError("root must be a world")
        for rel in (self.ra, self.rb):
            for s, t in rel:
                if s not in ws or t not in ws:
                    raise ValueError("relation edge outside the world set")
        for name, holds in self.valuation.items():
            if not holds <= ws:
                raise ValueError(f"valuation of {name!r} outside the world set")


def model_check(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Standard satisfaction at a world: membership in phi's truth set."""
    if world not in model.worlds:
        raise ValueError(f"unknown world {world!r}")
    return world in truth_set(model, phi)


def _successors(worlds: list[int], rel: set[tuple[int, int]]) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {w: set() for w in worlds}
    for s, t in rel:
        succ[s].add(t)
    return succ


def truth_set(model: KripkeModel, phi: Formula) -> frozenset[int]:
    """All worlds satisfying phi, computed bottom-up over subformulas.

    Each distinct subformula is evaluated once, so the cost is linear in
    the number of subformulas times the size of the model.
    """
    everything = frozenset(model.worlds)
    succ_a = _successors(model.worlds, model.ra)
    succ_b = _successors(model.worlds, model.rb)
    memo: dict[Formula, frozenset[int]] = {}

    def ev(f: Formula) -> frozenset[int]:
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


def _weakly_dense(worlds: list[int], ra: set[tuple[int, int]], rb: set[tuple[int, int]]) -> bool:
    succ_a = _successors(worlds, ra)
    succ_b = _successors(worlds, rb)
    return all(any(t in succ_b[u] for u in succ_a[s]) for (s, t) in ra)


def is_dense(model: KripkeModel) -> bool:
    """Every ra edge has an ra-ra midpoint: weak density with rb read as ra."""
    return _weakly_dense(model.worlds, model.ra, model.ra)


def is_weakly_dense(model: KripkeModel) -> bool:
    """Every ra edge has an ra-rb midpoint."""
    return _weakly_dense(model.worlds, model.ra, model.rb)


# --------------------------------------------------------------------------
# Bounded model search.
#
# Worlds are 0..n-1.  A relation is a bitmask over pairs ordered (0,0),
# (0,1), ..., (n-1,n-1); a valuation is a bitmask with bit (i*n + w) set
# when the i-th atom holds at world w.  Enumeration is n ascending, then
# ra mask ascending, rb mask ascending, valuation ascending, root
# ascending, so "the first model" is well defined and reproducible.


def _succ_masks(n: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> (s * n)) & ((1 << n) - 1) for s in range(n))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_weakly_dense(n: int, succ_a: tuple[int, ...], succ_b: tuple[int, ...]) -> bool:
    for s in range(n):
        for t in _bits(succ_a[s]):
            if not any((succ_b[u] >> t) & 1 for u in _bits(succ_a[s])):
                return False
    return True


@lru_cache(maxsize=None)
def _dense_masks(n: int) -> tuple[int, ...]:
    masks = []
    for m in range(1 << (n * n)):
        s = _succ_masks(n, m)
        if _mask_weakly_dense(n, s, s):
            masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=None)
def _weakly_dense_mask_pairs(n: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for ra in range(1 << (n * n)):
        sa = _succ_masks(n, ra)
        for rb in range(1 << (n * n)):
            if _mask_weakly_dense(n, sa, _succ_masks(n, rb)):
                pairs.append((ra, rb))
    return tuple(pairs)


def _frame_masks(n: int, frame_class: str, bimodal: bool) -> Iterable[tuple[int, int]]:
    if frame_class == WEAKLY_DENSE:
        return _weakly_dense_mask_pairs(n)
    total = 1 << (n * n)
    ras = _dense_masks(n) if frame_class == DENSE else range(total)
    return product(ras, range(total) if bimodal else (0,))


def _eval_mask(
    f: Formula,
    val_masks: dict[str, int],
    succ_a: tuple[int, ...],
    succ_b: tuple[int, ...],
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
        for ra_mask, rb_mask in _frame_masks(n, frame_class, bimodal):
            succ_a = _succ_masks(n, ra_mask)
            succ_b = _succ_masks(n, rb_mask)
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
                model = KripkeModel(
                    worlds=list(range(n)),
                    ra={(s, t) for s in range(n) for t in _bits(succ_a[s])},
                    rb={(s, t) for s in range(n) for t in _bits(succ_b[s])},
                    valuation={
                        name: set(_bits(val_masks[name])) for name in names
                    },
                    root=root,
                )
                _check_found(model, targets, frame_class)
                return model
    return None


def _check_found(model: KripkeModel, targets: list[Formula], frame_class: str) -> None:
    # Double-entry: the bitmask evaluation must agree with the set-based
    # checker.  _eval_mask stays a separate evaluator from truth_set for this
    # check alone: if one were written in terms of the other, the check would
    # compare a function with itself.
    for f in targets:
        if not model_check(model, model.root, f):
            raise InvariantError(f"bounded_search result fails model_check on {f}")
    if frame_class == DENSE and not is_dense(model):
        raise InvariantError("bounded_search produced a non-dense frame")
    if frame_class == WEAKLY_DENSE and not is_weakly_dense(model):
        raise InvariantError("bounded_search produced a non-weakly-dense frame")


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
# "val": {"p": [...]}, "root": 0}.  Unimodal models omit "rb".


def model_to_json(model: KripkeModel, include_rb: bool = True) -> dict:
    data = {
        "worlds": sorted(model.worlds),
        "ra": sorted([s, t] for (s, t) in model.ra),
        "val": {name: sorted(ws) for name, ws in sorted(model.valuation.items())},
        "root": model.root,
    }
    if include_rb:
        data["rb"] = sorted([s, t] for (s, t) in model.rb)
    return data


def model_from_json(data: dict) -> KripkeModel:
    return KripkeModel(
        worlds=list(data["worlds"]),
        ra={(s, t) for s, t in data["ra"]},
        rb={(s, t) for s, t in data.get("rb", [])},
        valuation={name: set(ws) for name, ws in data.get("val", {}).items()},
        root=data["root"],
    )


def model_json_text(model: KripkeModel, include_rb: bool = True) -> str:
    """json.dumps(model_to_json(model, include_rb), sort_keys=True), written directly.

    Worlds are ints, so the text is formatted without building a list per
    edge first; only atom names go through json.dumps.
    """

    def ints(ws) -> str:
        return "[" + ", ".join(map(str, sorted(ws))) + "]"

    def pairs(rel) -> str:
        return "[" + ", ".join(f"[{s}, {t}]" for s, t in sorted(rel)) + "]"

    val = ", ".join(
        f"{json.dumps(name)}: {ints(ws)}" for name, ws in sorted(model.valuation.items())
    )
    rb = f'"rb": {pairs(model.rb)}, ' if include_rb else ""
    return (
        f'{{"ra": {pairs(model.ra)}, {rb}"root": {model.root}, '
        f'"val": {{{val}}}, "worlds": {ints(model.worlds)}}}'
    )
