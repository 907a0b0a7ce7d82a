"""Guard-atom relativization.

relativize(p, phi) rewrites every box body chi into p -> chi and leaves the
Boolean structure alone.  Restricting a frame to the worlds where the fresh
guard p holds turns any frame into one indistinguishable from a dense
frame for guarded formulas, so validity of phi over all frames coincides
with validity of the relativization over dense frames.  The output never
exceeds five times the input's node count.
"""

from __future__ import annotations

from .errors import InvariantError
from .formula import (
    And,
    Atom,
    Box,
    Falsum,
    Formula,
    Not,
    ParseError,
    UNIMODAL,
    atom_names,
    implies,
    parse,
    size,
)

_FALLBACK_NAMES = "abcdefghijklmnopqrstuvwxyz"


def relativize(guard: str, phi: Formula) -> Formula:
    """Relativize every box through the fresh guard atom.

    Raises ValueError when the guard is not an atom name (it must parse as
    exactly Atom(guard), so not `false`, `true`, `P` or `x&y`) or when it
    already occurs in the formula.
    """
    try:
        named = parse(guard, UNIMODAL) == Atom(guard)
    except ParseError:
        named = False
    if not named:
        raise ValueError(f"guard {guard!r} is not an atom name")
    if guard in atom_names(phi):
        raise ValueError(f"guard atom {guard!r} occurs in the formula")
    p = Atom(guard)

    def walk(f: Formula) -> Formula:
        if isinstance(f, (Atom, Falsum)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.child))
        if isinstance(f, And):
            return And(walk(f.left), walk(f.right))
        return Box(f.modality, implies(p, walk(f.child)))

    out = walk(phi)
    if size(out) > 5 * size(phi):
        raise InvariantError("relativization exceeded the 5x size bound")
    return out


def fresh_atom(phi: Formula) -> str:
    """Lexicographically first candidate name not occurring in the formula."""
    used = atom_names(phi)
    for name in _FALLBACK_NAMES:
        if name not in used:
            return name
    i = 0
    while f"g{i}" in used:
        i += 1
    return f"g{i}"
