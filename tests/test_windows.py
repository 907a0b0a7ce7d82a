import random
from itertools import compress, product

import pytest

from densemodal import (
    Atom,
    Box,
    MOD_A,
    MOD_B,
    Not,
    all_formulas,
    box_inverse,
    csf,
    parse,
    sat_set,
    set_degree,
    sort_key,
)
from densemodal import windows as windows_module
from densemodal.saturation import is_saturation_of, saturations
from densemodal.windows import continuations
from conftest import anchor_windows, chained_formula, is_window, random_formula
import rule_reference as reference

P, Q = Atom("p"), Atom("q")


def saturation_of(*formulas):
    members = frozenset(formulas)
    assert is_saturation_of(members, members)
    return members


WORKED_ANCHOR = saturation_of(Box(MOD_A, Q), Not(Box(MOD_A, P)))
WORKED_BOXA = box_inverse(WORKED_ANCHOR, MOD_A)


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
        got = list(anchor_windows(WORKED_ANCHOR, Not(P)))
        assert got == [
            (frozenset({Not(P), Q}), frozenset({Q})),
        ]
        assert len(got[0]) == set_degree(WORKED_ANCHOR) + 1

    def test_bare_diamond(self):
        anchor = saturation_of(Not(Box(MOD_A, P)))
        got = list(anchor_windows(anchor, Not(P)))
        assert got == [(frozenset({Not(P)}), frozenset())]

    def test_degree_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            list(anchor_windows(saturation_of(P), Not(P)))

    def test_clashing_body_gives_empty_stream(self):
        from densemodal import And

        # body ~(p & p) forces ~p next to the p coming from the anchor's box
        anchor = saturation_of(Box(MOD_A, P), Not(Box(MOD_A, And(P, P))))
        assert list(anchor_windows(anchor, Not(And(P, P)))) == []

    def test_clashing_anchor_is_not_a_saturation(self):
        bad = frozenset({Box(MOD_A, P), Not(Box(MOD_A, P))})
        assert not is_saturation_of(bad, bad)

    def test_every_window_passes_is_window(self):
        rng = random.Random(103)
        checked = 0
        for anchor, body in _random_anchors(rng, 800):
            for t in anchor_windows(anchor, body):
                checked += 1
                assert is_window(t, box_inverse(anchor, MOD_A), body)
                assert len(t) == set_degree(anchor) + 1
        assert checked > 30


class TestContinuations:
    def test_worked_example(self):
        start = next(anchor_windows(WORKED_ANCHOR, Not(P)))
        got = list(continuations(WORKED_BOXA, start, {}))
        assert got == [(frozenset({Q}), frozenset({Q}))]

    def test_self_continuing_window(self):
        loop = next(continuations(WORKED_BOXA, next(anchor_windows(WORKED_ANCHOR, Not(P))), {}))
        again = list(continuations(WORKED_BOXA, loop, {}))
        assert again == [loop]

    def test_empty_boxes_continue_with_empty_parts(self):
        anchor = saturation_of(Not(Box(MOD_A, P)))
        start = next(anchor_windows(anchor, Not(P)))
        got = list(continuations(box_inverse(anchor, MOD_A), start, {}))
        assert got == [(frozenset(), frozenset())]

    def test_merged_tuple_is_a_longer_window(self):
        rng = random.Random(107)
        checked = 0
        for anchor, body in _random_anchors(rng, 800):
            boxa = box_inverse(anchor, MOD_A)
            for start in anchor_windows(anchor, body):
                for cont in continuations(boxa, start, {}):
                    merged = (start[0],) + cont
                    assert is_window(merged, boxa, body)
                    checked += 1
        assert checked > 30

    def test_part_degrees_and_size_bounds(self):
        start = next(anchor_windows(WORKED_ANCHOR, Not(P)))
        for i, part in enumerate(start):
            assert set_degree(part) <= set_degree(WORKED_ANCHOR) - 1
            seed = set(WORKED_BOXA)
            if i + 1 < len(start):
                seed |= box_inverse(start[i + 1], MOD_B)
            if i == 0:
                seed.add(Not(P))
            assert part <= csf(seed)


class TestIsWindow:
    def test_worked_positive(self):
        assert is_window(
            (frozenset({Not(P), Q}), frozenset({Q})), WORKED_BOXA, Not(P)
        )

    def test_continuation_is_a_window_without_extra(self):
        assert is_window((frozenset({Q}), frozenset({Q})), WORKED_BOXA)

    def test_wrong_first_part(self):
        assert not is_window((frozenset({P}), frozenset({Q})), WORKED_BOXA)


class TestShiftedSeedTest:
    """`continuations` keeps only candidates that are saturations of the shifted seed."""

    # A chain seed of this solve derives q and ~~q from ~(~q & p); its
    # shifted seed cannot, because the ~p in it blocks that disjunction.
    FORMULAS = ("[a](([b]~p & ~(~q & p)) & ~([b]~p & [b]q))", "~[a][b]p", "[b](p & q)")

    def test_every_continuation_is_a_window(self, monkeypatch):
        real = windows_module.continuations
        yielded = []

        def recording(boxa, parts, *tables):
            for cont in real(boxa, parts, *tables):
                yielded.append((boxa, cont))
                yield cont

        monkeypatch.setattr(windows_module, "continuations", recording)
        result = sat_set({parse(text, "bimodal") for text in self.FORMULAS})
        assert yielded
        assert all(is_window(cont, boxa) for boxa, cont in yielded)
        assert result.stats == {"max_depth": 2, "saturations": 4, "windows": 6}


def continuations_by_definition(boxa, window):
    """Every continuation of a window over an anchor with a-box bodies boxa,
    found by brute force.

    Parts are chosen right to left, and each is any subset of its chain
    seed's closure that the reference membership test accepts as a
    saturation of both the chain seed and the shifted seed.  Neither the
    package's saturation search nor its membership test is used.
    """
    k = len(window) - 1

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
        if j == k + 1:
            seed = shifted = boxa
        else:
            boxb_next = box_inverse(suffix[0], MOD_B)
            seed, shifted = boxb_next | window[j], boxa | boxb_next
        for cand in saturations_of_both(frozenset(seed), frozenset(shifted)):
            choose(j - 1, (cand,) + suffix)

    choose(k + 1, ())
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
        boxa = box_inverse(anchor, MOD_A)
        frontier = list(anchor_windows(anchor, Not(Not(P))))
        seen = set()
        while frontier:
            window = frontier.pop()
            if window in seen:
                continue
            seen.add(window)
            got = list(continuations(boxa, window, {}))
            assert len(got) == len(set(got)) == 2
            assert set(got) == continuations_by_definition(boxa, window)
            frontier.extend(got)
        assert len(seen) == 8


def tuple_family(seed, tables=None):
    """The family as the windows module used to read it: the whole stream
    as a tuple, built before its first member is tried."""
    return tuple(saturations(seed, tables))


class TestStreamsAgainstTupleFamilies:
    """`initial_windows` and `continuations`, which draw each part's family
    as a stream, against the same functions reading every family as a
    tuple.  Every call sat_set makes is recorded with the windows it drew;
    run to exhaustion on fresh tables, both yield the same windows in the
    same order, and sat_set drew a prefix of them."""

    @staticmethod
    def recorded_calls(monkeypatch, formulas):
        calls = []
        for name in ("initial_windows", "continuations"):
            real = getattr(windows_module, name)

            def recording(*args, real=real):
                drawn = []
                calls.append((real, args[:-1], drawn))
                for parts in real(*args):
                    drawn.append(parts)
                    yield parts

            monkeypatch.setattr(windows_module, name, recording)
        for phi in formulas:
            sat_set({phi})
        return calls

    def check(self, monkeypatch, formulas) -> int:
        calls = self.recorded_calls(monkeypatch, formulas)
        for real, args, drawn in calls:
            got = list(real(*args, {}))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(windows_module, "saturation_family", tuple_family)
                want = list(real(*args, {}))
            assert got == want, args
            assert drawn == want[: len(drawn)], args
        return len(calls)

    def test_every_formula_of_five_nodes(self, monkeypatch):
        formulas = all_formulas(5, ["p"], modalities=(MOD_A, MOD_B))
        assert self.check(monkeypatch, formulas) > 150

    def test_random_chained_formulas(self, monkeypatch):
        rng = random.Random(163)
        formulas = [
            chained_formula(rng, rng.choice((4, 6, 8)), ["p", "q"]) for _ in range(500)
        ]
        assert self.check(monkeypatch, formulas) > 1000

    def test_windows_with_two_continuations(self, monkeypatch):
        # Random formulas seldom reach a part with a family of two; these
        # reach one in every part, in initial windows and continuations.
        texts = TestEveryContinuation.FORMULAS + ("<a>((p | q) & (p | r))",)
        formulas = [parse(text, "bimodal") for text in texts]
        assert self.check(monkeypatch, formulas) == 9
