import random
from itertools import compress, product

import pytest

from densemodal import (
    Atom,
    Box,
    MOD_A,
    MOD_B,
    Not,
    box_inverse,
    csf,
    parse,
    sat_set,
    set_degree,
    sort_key,
)
from densemodal import windows as windows_module
from densemodal.saturation import is_saturation_of, saturations
from densemodal.windows import continuations, initial_windows, is_window
from conftest import random_formula
import rule_reference as reference

P, Q = Atom("p"), Atom("q")


def saturation_of(*formulas):
    members = frozenset(formulas)
    assert is_saturation_of(members, members)
    return members


WORKED_ANCHOR = saturation_of(Box(MOD_A, Q), Not(Box(MOD_A, P)))


def _random_anchors(rng, trials):
    """Saturations with at least one negated a-box, drawn from random seeds."""
    for _ in range(trials):
        seed = frozenset(
            random_formula(rng, 5, ["p", "q"], (MOD_A, MOD_B))
            for _ in range(rng.randint(1, 3))
        )
        for s in saturations(seed):
            bodies = [
                f.child.child
                for f in s
                if isinstance(f, Not)
                and isinstance(f.child, Box)
                and f.child.modality == MOD_A
            ]
            if bodies:
                yield s, Not(bodies[0])


class TestInitialWindows:
    def test_worked_example(self):
        got = list(initial_windows(WORKED_ANCHOR, Not(P)))
        assert [t.parts for t in got] == [
            (frozenset({Not(P), Q}), frozenset({Q})),
        ]
        assert got[0].seed_extra == Not(P)
        assert got[0].k == 1

    def test_bare_diamond(self):
        anchor = saturation_of(Not(Box(MOD_A, P)))
        got = list(initial_windows(anchor, Not(P)))
        assert [t.parts for t in got] == [(frozenset({Not(P)}), frozenset())]

    def test_degree_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            list(initial_windows(saturation_of(P), Not(P)))

    def test_clashing_body_gives_empty_stream(self):
        from densemodal import And

        # body ~(p & p) forces ~p next to the p coming from the anchor's box
        anchor = saturation_of(Box(MOD_A, P), Not(Box(MOD_A, And(P, P))))
        assert list(initial_windows(anchor, Not(And(P, P)))) == []

    def test_clashing_anchor_is_not_a_saturation(self):
        bad = frozenset({Box(MOD_A, P), Not(Box(MOD_A, P))})
        assert not is_saturation_of(bad, bad)

    def test_every_window_passes_is_window(self):
        rng = random.Random(103)
        checked = 0
        for anchor, body in _random_anchors(rng, 800):
            for t in initial_windows(anchor, body):
                checked += 1
                assert is_window(t.parts, anchor, t.seed_extra)
                assert len(t.parts) == set_degree(anchor) + 1
        assert checked > 30


class TestContinuations:
    def test_worked_example(self):
        start = next(iter(initial_windows(WORKED_ANCHOR, Not(P))))
        got = list(continuations(start))
        assert [t.parts for t in got] == [(frozenset({Q}), frozenset({Q}))]
        assert got[0].seed_extra is None

    def test_self_continuing_window(self):
        loop = next(iter(continuations(next(iter(initial_windows(WORKED_ANCHOR, Not(P)))))))
        again = list(continuations(loop))
        assert [t.parts for t in again] == [loop.parts]

    def test_empty_boxes_continue_with_empty_parts(self):
        anchor = saturation_of(Not(Box(MOD_A, P)))
        start = next(iter(initial_windows(anchor, Not(P))))
        got = list(continuations(start))
        assert [t.parts for t in got] == [(frozenset(), frozenset())]

    def test_merged_tuple_is_a_longer_window(self):
        rng = random.Random(107)
        checked = 0
        for anchor, body in _random_anchors(rng, 800):
            for start in initial_windows(anchor, body):
                for cont in continuations(start):
                    merged = (start.parts[0],) + cont.parts
                    assert is_window(merged, anchor, start.seed_extra)
                    checked += 1
        assert checked > 30

    def test_part_degrees_and_size_bounds(self):
        start = next(iter(initial_windows(WORKED_ANCHOR, Not(P))))
        boxa = box_inverse(WORKED_ANCHOR, MOD_A)
        for i, part in enumerate(start.parts):
            assert set_degree(part) <= set_degree(WORKED_ANCHOR) - 1
            seed = set(boxa)
            if i + 1 < len(start.parts):
                seed |= box_inverse(start.parts[i + 1], MOD_B)
            if i == 0:
                seed.add(Not(P))
            assert part <= csf(seed)


class TestIsWindow:
    def test_worked_positive(self):
        assert is_window(
            (frozenset({Not(P), Q}), frozenset({Q})), WORKED_ANCHOR, Not(P)
        )

    def test_continuation_is_a_window_without_extra(self):
        assert is_window((frozenset({Q}), frozenset({Q})), WORKED_ANCHOR)

    def test_wrong_first_part(self):
        assert not is_window((frozenset({P}), frozenset({Q})), WORKED_ANCHOR)


class TestShiftedSeedTest:
    """`continuations` keeps only candidates that are saturations of the shifted seed."""

    # A chain seed of this solve derives q and ~~q from ~(~q & p); its
    # shifted seed cannot, because the ~p in it blocks that disjunction.
    FORMULAS = ("[a](([b]~p & ~(~q & p)) & ~([b]~p & [b]q))", "~[a][b]p", "[b](p & q)")

    def test_every_continuation_is_a_window(self, monkeypatch):
        real = windows_module.continuations
        yielded = []

        def recording(window, *tables):
            for cont in real(window, *tables):
                yielded.append(cont)
                yield cont

        monkeypatch.setattr(windows_module, "continuations", recording)
        result = sat_set({parse(text, "bimodal") for text in self.FORMULAS})
        assert yielded
        assert all(is_window(cont.parts, cont.anchor) for cont in yielded)
        assert result.stats == {"max_depth": 2, "saturations": 4, "windows": 6}


def continuations_by_definition(window):
    """Every continuation of a window, found by brute force.

    Parts are chosen right to left, and each is any subset of its chain
    seed's closure that the reference membership test accepts as a
    saturation of both the chain seed and the shifted seed.  Neither the
    package's saturation search nor its membership test is used.
    """
    boxa = box_inverse(window.anchor, MOD_A)

    def saturations_of_both(seed, shifted):
        closure = sorted(reference.csf(seed), key=sort_key)
        for picks in product((0, 1), repeat=len(closure)):
            cand = frozenset(compress(closure, picks))
            if reference.is_saturation_of(cand, seed) and reference.is_saturation_of(cand, shifted):
                yield cand

    found = set()

    def choose(j, suffix):
        if j == 0:
            found.add(suffix)
            return
        if j == window.k + 1:
            seed = shifted = boxa
        else:
            boxb_next = box_inverse(suffix[0], MOD_B)
            seed, shifted = boxb_next | window.parts[j], boxa | boxb_next
        for cand in saturations_of_both(frozenset(seed), frozenset(shifted)):
            choose(j - 1, (cand,) + suffix)

    choose(window.k + 1, ())
    return found


class TestEveryContinuation:
    """`continuations` yields every continuation of a window, each once.

    Random formulas only reach windows with one continuation.  Under the
    a-box of these anchors, q | r gives each inner part a choice of two, so
    every window has two continuations and dropping either shows.
    """

    FORMULAS = ("<a>p & [a][b](q | r)", "<a>p & [a][b][b](q | r)")

    @pytest.mark.parametrize("text", FORMULAS)
    def test_matches_the_brute_force_enumeration(self, text):
        (anchor,) = saturations({parse(text, "bimodal")})
        frontier = list(initial_windows(anchor, Not(Not(P))))
        seen = set()
        while frontier:
            window = frontier.pop()
            if window.parts in seen:
                continue
            seen.add(window.parts)
            got = list(continuations(window))
            parts = [cont.parts for cont in got]
            assert len(parts) == len(set(parts)) == 2
            assert set(parts) == continuations_by_definition(window)
            frontier.extend(got)
        assert len(seen) == 8
