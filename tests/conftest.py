import random

from densemodal import And, Atom, Box, FALSUM, MOD_A, Not


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
