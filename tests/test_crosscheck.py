"""The solvers check each other through three frame facts.

1. Any K-model is weakly dense once rb is the full relation (u = t is a
   midpoint), so an a-only formula is kdeab-SAT exactly when it is K-SAT.
2. Any K-model for b is weakly dense once ra is empty, so a b-only formula
   is kdeab-SAT exactly when it is K-SAT.
3. A dense frame with rb := ra is weakly dense, so every a/b relabelling of
   a kde-SAT formula's boxes is kdeab-SAT.

Each fact compares the answers of two independently written procedures:
the kdeab tableau against the oracle's K tableau (`k_valid`), and the kde
fixpoint against the kdeab tableau.  The corpus is every formula of at
most 7 nodes over p.
"""

from functools import lru_cache

from densemodal import (
    MOD_A,
    MOD_B,
    SAT,
    And,
    Atom,
    Box,
    Falsum,
    Not,
    all_formulas,
    k_valid,
    kde_sat,
    sat_set,
)


@lru_cache(maxsize=None)
def corpus():
    return all_formulas(7, ["p"], (MOD_A,))


def k_sat(phi):
    return not k_valid(Not(phi))


def kdeab_sat(phi):
    return sat_set({phi}).verdict == SAT


def relabelled(phi, modality):
    """phi with every box indexed by modality."""
    if isinstance(phi, (Atom, Falsum)):
        return phi
    if isinstance(phi, Not):
        return Not(relabelled(phi.child, modality))
    if isinstance(phi, And):
        return And(relabelled(phi.left, modality), relabelled(phi.right, modality))
    return Box(modality, relabelled(phi.child, modality))


def relabellings(phi):
    """Every way to index each box occurrence of phi with a or b."""
    if isinstance(phi, (Atom, Falsum)):
        yield phi
    elif isinstance(phi, Not):
        yield from map(Not, relabellings(phi.child))
    elif isinstance(phi, And):
        for left in relabellings(phi.left):
            for right in relabellings(phi.right):
                yield And(left, right)
    else:
        for child in relabellings(phi.child):
            yield Box(MOD_A, child)
            yield Box(MOD_B, child)


def test_corpus_size():
    assert len(corpus()) == 2874


def test_a_only_formulas_are_kdeab_sat_exactly_when_k_sat():
    k_answers = [k_sat(phi) for phi in corpus()]
    assert [kdeab_sat(phi) for phi in corpus()] == k_answers
    assert True in k_answers and False in k_answers


def test_b_only_formulas_are_kdeab_sat_exactly_when_k_sat():
    # k_valid reads a-boxes, so the K side sees the b-only formula with its
    # boxes relabelled as a, which is the corpus formula itself.
    k_answers = [k_sat(phi) for phi in corpus()]
    assert [kdeab_sat(relabelled(phi, MOD_B)) for phi in corpus()] == k_answers


def test_every_relabelling_of_a_kde_sat_formula_is_kdeab_sat():
    kde_sat_formulas = [phi for phi in corpus() if kde_sat(phi).verdict == SAT]
    checked = 0
    for phi in kde_sat_formulas:
        for variant in relabellings(phi):
            assert kdeab_sat(variant), (phi, variant)
            checked += 1
    assert (len(kde_sat_formulas), checked) == (2028, 8948)
