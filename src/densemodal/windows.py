"""Windows onto the infinite successor chains demanded by weak density.

To satisfy a negated a-box at a saturated set w, the anchor needs an
a-successor for the body plus, by weak density, an interpolating
b-predecessor chain above it, without end.  A window is the finite slice
the search keeps in hand: an ordered tuple (w0, ..., wk) of saturations, k
the degree of the anchor, where wk extends the a-box bodies of the anchor
and each earlier part additionally extends the b-box bodies of the part to
its right.  The first part of the first window also carries the diamond
body that started the search.  The anchor and every part are member sets,
frozensets of formulas, as `saturation` yields them.

A continuation shifts the slice one step: a tuple (v1, ..., v(k+1)) that is
itself a window (with indices shifted) and in which each vi extends the
b-box bodies of v(i+1) together with the old part wi.  Chaining
continuations for ever is exactly an infinite successor chain; the solver
never materializes one because a repeated window lets the chain loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .formula import Formula, MOD_A, MOD_B, box_inverse, set_degree
from .saturation import Tables, is_saturation_of, saturation_family, saturation_test


@dataclass(frozen=True)
class Window:
    """A k-window for its anchor; the anchor and parts are member sets.

    seed_extra records the diamond body seeded into parts[0] when this is
    an initial window; continuations carry None.
    """

    anchor: frozenset[Formula]
    parts: tuple[frozenset[Formula], ...]
    seed_extra: Optional[Formula] = None

    @property
    def k(self) -> int:
        return len(self.parts) - 1

    @property
    def head(self) -> frozenset[Formula]:
        return self.parts[0]


def initial_windows(
    anchor: frozenset[Formula], body: Formula, tables: Optional[Tables] = None
) -> Iterator[Window]:
    """All degree(anchor)-windows whose first part carries the diamond body.

    Parts are chosen from the right end leftwards, because each seed depends
    on the part to its right.  An empty stream means the diamond cannot be
    satisfied from this anchor.  tables is the solve's seed tables (see
    `saturation.Tables`); without it, this call keeps its own.
    """
    if tables is None:
        tables = {}
    k = set_degree(anchor)
    if k < 1:
        raise ValueError("windows only exist for anchors of degree >= 1")
    boxa = box_inverse(anchor, MOD_A)

    def choose(i: int, suffix: tuple[frozenset[Formula], ...]) -> Iterator[Window]:
        if i < 0:
            yield Window(anchor, suffix, seed_extra=body)
            return
        if i == k:
            seed = boxa
        else:
            seed = boxa | box_inverse(suffix[0], MOD_B)
            if i == 0:
                seed = seed | {body}
        for cand in saturation_family(frozenset(seed), tables):
            yield from choose(i - 1, (cand,) + suffix)

    yield from choose(k, ())


def continuations(window: Window, tables: Optional[Tables] = None) -> Iterator[Window]:
    """All one-step extensions of a window.

    Each candidate part must lie in the saturation family of the old
    neighbour part plus the b-box bodies of the new part to its right, and
    must independently satisfy the shifted window condition for the anchor.
    tables is the solve's seed tables, as for `initial_windows`; every
    family and membership test below reads its seed's table from it.
    """
    if tables is None:
        tables = {}
    anchor = window.anchor
    k = window.k
    boxa = box_inverse(anchor, MOD_A)

    def choose(j: int, suffix: tuple[frozenset[Formula], ...]) -> Iterator[Window]:
        if j == 0:
            yield Window(anchor, suffix)
            return
        if j == k + 1:
            for cand in saturation_family(frozenset(boxa), tables):
                yield from choose(j - 1, (cand,) + suffix)
            return
        boxb_next = box_inverse(suffix[0], MOD_B)
        chain_seed = frozenset(boxb_next | window.parts[j])
        shifted_seed = boxa | boxb_next
        in_shifted = saturation_test(shifted_seed, tables)
        for cand in saturation_family(chain_seed, tables):
            if in_shifted(cand):
                yield from choose(j - 1, (cand,) + suffix)

    yield from choose(k + 1, ())


def is_window(
    parts: Sequence[frozenset[Formula]],
    anchor: frozenset[Formula],
    first_seed_extra: Optional[Formula] = None,
) -> bool:
    """Check the window membership conditions directly."""
    parts = tuple(frozenset(p) for p in parts)
    k = len(parts) - 1
    boxa = box_inverse(anchor, MOD_A)
    if not is_saturation_of(parts[k], boxa):
        return False
    for i in range(k):
        seed = boxa | box_inverse(parts[i + 1], MOD_B)
        if i == 0 and first_seed_extra is not None:
            seed = seed | {first_seed_extra}
        if not is_saturation_of(parts[i], frozenset(seed)):
            return False
    return True
