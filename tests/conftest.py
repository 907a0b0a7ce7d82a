import random

from densemodal import And, Atom, Box, FALSUM, MOD_A, MOD_B, Not, box_inverse, diamond, set_degree
from densemodal.saturation import is_saturation_of
from densemodal.windows import initial_windows


def random_formula(rng: random.Random, budget: int, names, modalities=(MOD_A,), falsum_rate=0.08):
    """Random core AST with at most budget nodes; deterministic under a seeded rng."""
    if budget <= 1 or rng.random() < 0.35:
        if rng.random() < falsum_rate:
            return FALSUM
        return Atom(rng.choice(names))
    kinds = ["not", "box"] if budget < 3 else ["not", "not", "box", "and", "and"]
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(random_formula(rng, budget - 1, names, modalities, falsum_rate))
    if kind == "box":
        return Box(
            rng.choice(modalities),
            random_formula(rng, budget - 1, names, modalities, falsum_rate),
        )
    split = rng.randint(1, budget - 2)
    return And(
        random_formula(rng, split, names, modalities, falsum_rate),
        random_formula(rng, budget - 1 - split, names, modalities, falsum_rate),
    )


def chained_formula(rng: random.Random, budget: int, names):
    """A random bimodal formula that often reaches a window chain:
    random_formula conjoined with an a-diamond placed under 0-2 random
    modal operators.

    random_formula stops at each node with probability 0.35, so it seldom
    builds the a-diamond a window chain starts from.  budget bounds each
    random_formula drawn (the conjunct and the diamond's body).
    """
    modalities = (MOD_A, MOD_B)
    planted = diamond(MOD_A, random_formula(rng, budget, names, modalities))
    for _ in range(rng.randint(0, 2)):
        wrap = rng.choice((Box, diamond))
        planted = wrap(rng.choice(modalities), planted)
    return And(random_formula(rng, budget, names, modalities), planted)


# Formula texts nested d levels deep, one per way the parser counts a level.
NESTINGS = {
    "negation": lambda d: "~" * d + "p",
    "box": lambda d: "[]" * d + "p",
    "diamond": lambda d: "<>" * d + "p",
    "parentheses": lambda d: "(" * d + "p" + ")" * d,
    "conjunction": lambda d: " & ".join(["p"] * (d + 1)),
    "disjunction": lambda d: " | ".join(["p"] * (d + 1)),
    "implication": lambda d: " -> ".join(["p"] * (d + 1)),
}


# Bimodal chains of modal operators nested d levels deep; every operator
# counts one level, so the alternating chain takes an even d.
MODAL_CHAINS = {
    "[a]": lambda d: "[a]" * d + "p",
    "<a>": lambda d: "<a>" * d + "p",
    "[b]": lambda d: "[b]" * d + "p",
    "<b>": lambda d: "<b>" * d + "p",
    "<a><b>": lambda d: "<a><b>" * (d // 2) + "p",
}


def anchor_windows(anchor, body):
    """The initial windows of a saturated anchor's diamond body: the windows
    module's stream, given the anchor's a-box bodies and degree."""
    return initial_windows(box_inverse(anchor, MOD_A), set_degree(anchor), body, {})


def is_window(parts, boxa, first_seed_extra=None) -> bool:
    """Check the window membership conditions directly.

    parts is a window over an anchor with a-box bodies boxa: its last part
    is a saturation of boxa, each other part one of boxa plus the b-box
    bodies of the part to its right, and the first part, when
    first_seed_extra is given, also carries that diamond body.
    """
    parts = tuple(frozenset(p) for p in parts)
    k = len(parts) - 1
    if not is_saturation_of(parts[k], boxa):
        return False
    for i in range(k):
        seed = boxa | box_inverse(parts[i + 1], MOD_B)
        if i == 0 and first_seed_extra is not None:
            seed = seed | {first_seed_extra}
        if not is_saturation_of(parts[i], seed):
            return False
    return True
