"""Seeded input generators for the benchmark.

Formulas are built here as plain tuples in the program's core shape (atom,
negation, conjunction, indexed box), rendered to the program's concrete
syntax, and handed over only as text.  Nothing in this module imports the
program, so its counts (free bits, depth, top-level disjunctions) are an
independent statement about every input.

Core nodes:  ("atom", name)  ("not", x)  ("and", x, y)  ("box", m, x)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATOM_NAMES = ("p", "q", "r", "s", "t")


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(x: tuple) -> tuple:
    return ("not", x)


def conj(x: tuple, y: tuple) -> tuple:
    return ("and", x, y)


def box(m: str, x: tuple) -> tuple:
    return ("box", m, x)


def lor(x: tuple, y: tuple) -> tuple:
    """Disjunction in core form, exactly as the program's parser desugars `|`."""
    return neg(conj(neg(x), neg(y)))


def implies(x: tuple, y: tuple) -> tuple:
    return neg(conj(x, neg(y)))


def big(op, items: list) -> tuple:
    """Right-nested fold, matching the right associativity of `&` and `|`."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = op(item, out)
    return out


# --------------------------------------------------------------------------
# Measures, computed on the core tuples.


def subterms(phi: tuple) -> set:
    out: set = set()
    todo = [phi]
    while todo:
        f = todo.pop()
        if f in out:
            continue
        out.add(f)
        todo.extend(x for x in f[1:] if isinstance(x, tuple))
    return out


def free_bits(phi: tuple) -> int:
    """Distinct atoms plus distinct boxes: the kde profile's free positions."""
    return sum(1 for f in subterms(phi) if f[0] in ("atom", "box"))


def depth(phi: tuple) -> int:
    kind = phi[0]
    if kind == "atom":
        return 0
    if kind == "box":
        return 1 + depth(phi[2])
    return max(depth(x) for x in phi[1:])


def top_disjunctions(phi: tuple) -> int:
    """Disjunctions among the top-level conjuncts."""
    conjuncts = []
    todo = [phi]
    while todo:
        f = todo.pop()
        if f[0] == "and":
            todo.extend((f[1], f[2]))
        else:
            conjuncts.append(f)
    return sum(1 for f in conjuncts if _is_disjunction(f))


def _is_disjunction(f: tuple) -> bool:
    return f[0] == "not" and f[1][0] == "and" and f[1][1][0] == "not" and f[1][2][0] == "not"


# --------------------------------------------------------------------------
# Rendering.  Binary operators are always parenthesised, so no precedence
# rule of the program's grammar is relied on; `|`, `->` and diamonds are
# written back as sugar because the parser turns them into the same core.


def render(phi: tuple, bimodal: bool) -> str:
    kind = phi[0]
    if kind == "atom":
        return phi[1]
    if kind == "box":
        return _box(phi[1], bimodal) + render(phi[2], bimodal)
    if kind == "and":
        return f"({render(phi[1], bimodal)} & {render(phi[2], bimodal)})"
    c = phi[1]
    if _is_disjunction(phi):
        return f"({render(c[1][1], bimodal)} | {render(c[2][1], bimodal)})"
    if c[0] == "box" and c[2][0] == "not":
        return _diamond(c[1], bimodal) + render(c[2][1], bimodal)
    return "~" + render(c, bimodal)


def _box(m: str, bimodal: bool) -> str:
    return f"[{m}]" if bimodal else "[]"


def _diamond(m: str, bimodal: bool) -> str:
    return f"<{m}>" if bimodal else "<>"


# --------------------------------------------------------------------------
# Random modal k-CNF, after Patel-Schneider & Sebastiani (JAIR 2003): a
# formula is a conjunction of clauses, a clause a disjunction of `width`
# literals, and a literal is, with probability `modal_prob` while depth
# remains, a signed box over a clause one level shallower, else a signed
# atom.  Atoms within one clause are distinct.


@dataclass(frozen=True)
class CnfParams:
    clauses: int
    width: int
    depth: int
    atoms: int
    modal_prob: float
    modalities: tuple[str, ...] = ("a",)


def random_cnf(rng: random.Random, params: CnfParams) -> tuple:
    return big(conj, [_clause(rng, params, params.depth) for _ in range(params.clauses)])


def _clause(rng: random.Random, params: CnfParams, d: int) -> tuple:
    names = list(ATOM_NAMES[: params.atoms])
    lits = []
    for _ in range(params.width):
        if d > 0 and rng.random() < params.modal_prob:
            lit = box(rng.choice(params.modalities), _clause(rng, params, d - 1))
        else:
            lit = atom(names.pop(rng.randrange(len(names))) if names else rng.choice(ATOM_NAMES[: params.atoms]))
        lits.append(neg(lit) if rng.random() < 0.5 else lit)
    return big(lor, lits)


# --------------------------------------------------------------------------
# Conjunctions of modal literals: the top level is a conjunction of signed
# boxes, each over a k-CNF clause one level shallower, so no disjunction
# occurs at the top level while box bodies still branch.


def random_modal_conj(rng: random.Random, literals: int, params: CnfParams) -> tuple:
    """`literals` signed boxes over clauses of depth `params.depth - 1`."""
    items = []
    for _ in range(literals):
        x = box(rng.choice(params.modalities), _clause(rng, params, params.depth - 1))
        items.append(neg(x) if rng.random() < 0.5 else x)
    return big(conj, items)
