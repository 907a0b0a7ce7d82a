import random

import pytest

from densemodal import (
    Atom,
    Box,
    MOD_A,
    Not,
    all_formulas,
    fresh_atom,
    implies,
    k_valid,
    kde_valid,
    parse,
    relativize,
    render,
    size,
)
from conftest import random_formula

P, Q = Atom("p"), Atom("q")


class TestRelativize:
    def test_atoms_untouched(self):
        assert relativize("p", Q) == Q

    def test_box_guarded(self):
        assert relativize("p", Box(MOD_A, Q)) == Box(MOD_A, implies(P, Q))
        assert render(relativize("p", parse("[]q"))) == "[](p -> q)"

    def test_diamond_mechanically(self):
        got = relativize("p", parse("<>q"))
        assert got == Not(Box(MOD_A, implies(P, Not(Q))))
        assert render(got) == "<>(p & ~~q)"

    def test_guard_must_be_fresh(self):
        with pytest.raises(ValueError):
            relativize("q", parse("[]q"))

    @pytest.mark.parametrize("guard", ["false", "true", "P", "x&y", "", " p"])
    def test_guard_must_be_an_atom_name(self, guard):
        # `false` as a guard would turn every box into [](false -> ...),
        # which is valid whatever the body is.
        with pytest.raises(ValueError, match="not an atom name"):
            relativize(guard, parse("[]q"))

    def test_every_fresh_name_is_a_guard(self):
        for phi in (parse("[]q"), parse(" & ".join("abcdefghijklmnopqrstuvwxyz"))):
            assert relativize(fresh_atom(phi), phi) is not None

    def test_size_bound_on_corpus(self):
        for phi in all_formulas(6, ["q"]):
            assert size(relativize("p", phi)) <= 5 * size(phi)

    def test_size_bound_random(self):
        rng = random.Random(137)
        for _ in range(200):
            phi = random_formula(rng, 9, ["q", "r"])
            assert size(relativize("p", phi)) <= 5 * size(phi)

    def test_validity_transfer_spot_checks(self):
        # Valid in K stays valid over dense frames after guarding, and the
        # dense-only density axiom stops being valid once guarded.
        assert kde_valid(relativize("p", parse("[](q -> q)")))
        assert k_valid(parse("[][]q -> []q")) == kde_valid(
            relativize("p", parse("[][]q -> []q"))
        )
        assert not kde_valid(relativize("p", parse("[][]q -> []q")))


class TestFreshAtom:
    def test_first_unused_letter(self):
        assert fresh_atom(parse("[]q")) == "a"
        assert fresh_atom(parse("a & b")) == "c"

    def test_exhausted_alphabet(self):
        phi = parse(" & ".join("abcdefghijklmnopqrstuvwxyz"))
        assert fresh_atom(phi) == "g0"
