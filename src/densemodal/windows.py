"""Windows onto the infinite successor chains demanded by weak density.

To satisfy a negated a-box at a saturated set w, the anchor needs an
a-successor for the body plus, by weak density, an interpolating
b-predecessor chain above it, without end.  A window is the finite slice
the search keeps in hand: a tuple (w0, ..., wk) of saturations, k the
degree of the anchor, where wk extends the anchor's a-box bodies and each
earlier part additionally extends the b-box bodies of the part to its
right.  The first part of the first window also carries the diamond body
that started the search.  Nothing else of the anchor is read, so both
functions take its a-box bodies and degree rather than the anchor.  Every
part is a member set, a frozenset of formulas, as `saturation` yields it.

Both functions are streams, and so is each part's family within them:
`saturation_family` is a view whose iteration draws members one at a
time, never past the point where the caller stops.  Both take the solve's
`saturation.Tables`.

A continuation shifts the slice one step: a tuple (v1, ..., v(k+1)) that is
itself a window (with indices shifted) and in which each vi extends the
b-box bodies of v(i+1) together with the old part wi.  Chaining
continuations for ever is exactly an infinite successor chain; the solver
never materializes one because a repeated window lets the chain loop.
"""

from __future__ import annotations

from typing import Iterator

from .formula import Formula, MOD_B, box_inverse
from .saturation import Tables, saturation_family, saturation_test
# windows does not call this; densebench/layers.py wraps it as a windows call site.
from .saturation import is_saturation_of  # noqa: F401

Parts = tuple[frozenset[Formula], ...]


def initial_windows(
    boxa: frozenset[Formula], k: int, body: Formula, tables: Tables
) -> Iterator[Parts]:
    """All k-windows whose first part carries the diamond body.

    boxa and k are the anchor's a-box bodies and degree.  Parts are chosen
    from the right end leftwards, because each seed depends on the part to
    its right.  An empty stream means the diamond cannot be satisfied from
    this anchor.
    """
    if k < 1:
        raise ValueError("windows only exist for anchors of degree >= 1")

    def choose(i: int, suffix: Parts) -> Iterator[Parts]:
        if i < 0:
            yield suffix
            return
        if i == k:
            seed = boxa
        else:
            seed = boxa | box_inverse(suffix[0], MOD_B)
            if i == 0:
                seed = seed | {body}
        for cand in saturation_family(seed, tables):
            yield from choose(i - 1, (cand,) + suffix)

    yield from choose(k, ())


def continuations(
    boxa: frozenset[Formula], parts: Parts, tables: Tables
) -> Iterator[Parts]:
    """All one-step extensions of a window over an anchor with a-box bodies boxa.

    Each candidate part must lie in the saturation family of the old
    neighbour part plus the b-box bodies of the new part to its right, and
    must independently satisfy the shifted window condition for the anchor.
    """
    k = len(parts) - 1

    def choose(j: int, suffix: Parts) -> Iterator[Parts]:
        if j == 0:
            yield suffix
            return
        if j == k + 1:
            for cand in saturation_family(boxa, tables):
                yield from choose(j - 1, (cand,) + suffix)
            return
        boxb_next = box_inverse(suffix[0], MOD_B)
        chain_seed = boxb_next | parts[j]
        shifted_seed = boxa | boxb_next
        in_shifted = saturation_test(shifted_seed, tables)
        for cand in saturation_family(chain_seed, tables):
            if in_shifted(cand):
                yield from choose(j - 1, (cand,) + suffix)

    yield from choose(k + 1, ())
