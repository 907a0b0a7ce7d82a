"""Test-only reference: the former kde initial frame, refinement and fixpoint.

`initial_frame` used to test the box condition for every pair of
profiles, `refine_frame` rebuilt every surviving edge tuple and built a
throw-away set per edge for its midpoint test, and `fixpoint` compared
whole frames to detect stability.  The kde module now computes one
successor list per set of box requirements, keeps the input's edge
tuples, computes one two-step reach per distinct successor set and keeps
an edge when its head lies in its tail's reach, returns its input object
from a round that removes nothing, and stops at that round; the
differential tests compare it against the functions below, on the
fixpoint path and on random sub-frames of initial frames.
"""

from densemodal import InvariantError
from densemodal.kde import FREE_BIT_LIMIT, ProfileFrame, build_index, profiles


def initial_frame(ix):
    """All profiles with every box-respecting edge."""
    if len(ix.free_positions) > FREE_BIT_LIMIT:
        raise ValueError(
            f"{len(ix.free_positions)} free bits exceed the limit of "
            f"{FREE_BIT_LIMIT}; the profile set would have 2**{len(ix.free_positions)} elements"
        )
    ps = list(profiles(ix))
    box_pairs = ix.box_pairs
    rel = frozenset(
        (x, y)
        for x in ps
        for y in ps
        if all(x[i] == 0 or y[j] == 1 for (i, j) in box_pairs)
    )
    return ProfileFrame(frozenset(ps), rel)


def refine_frame(frame, ix):
    """One pruning step: false boxes need a falsifying successor, edges a midpoint."""
    succ = {p: set() for p in frame.profiles}
    pred = {p: set() for p in frame.profiles}
    for x, y in frame.rel:
        succ[x].add(y)
        pred[y].add(x)
    keep = set()
    for p in frame.profiles:
        ok = True
        for i, j in ix.box_pairs:
            if p[i] == 0 and not any(q[j] == 0 for q in succ[p]):
                ok = False
                break
        if ok:
            keep.add(p)
    rel = frozenset(
        (x, y)
        for (x, y) in frame.rel
        if x in keep and y in keep and succ[x] & pred[y]
    )
    return ProfileFrame(frozenset(keep), rel)


def fixpoint(phi, ix=None):
    """Iterate refinement until the frame equals its refinement."""
    if ix is None:
        ix = build_index(phi)
    frame = initial_frame(ix)
    iterations = 0
    while True:
        refined = refine_frame(frame, ix)
        if refined == frame:
            break
        frame = refined
        iterations += 1
    if not frame.profiles:
        raise InvariantError(f"empty fixpoint frame for {phi}")
    return frame, iterations
