import json
import random
import tracemalloc

import pytest

from densemodal import (
    And,
    Atom,
    Box,
    FALSUM,
    FREE_BIT_LIMIT,
    MOD_A,
    Not,
    SAT,
    UNSAT,
    all_formulas,
    is_dense,
    kde_sat,
    kde_solve,
    kde_valid,
    model_check,
    model_json_text,
    parse,
    truth_set,
)
import densemodal.kde as kde_module
from densemodal.kde import (
    ProfileFrame,
    build_index,
    counter_model,
    fixpoint,
    frame_model,
    initial_frame,
    refine_frame,
)
from conftest import random_formula
import kde_reference as reference
import rule_reference

P = Atom("p")


class TestIndex:
    def test_single_atom(self):
        ix = build_index(P)
        assert ix.entries == (P,)

    def test_negation(self):
        ix = build_index(Not(P))
        assert ix.entries == (P, Not(P))

    def test_reflexivity_formula(self):
        phi = parse("[]p -> p")
        ix = build_index(phi)
        box_p = Box(MOD_A, P)
        assert ix.entries == (
            P,
            box_p,
            Not(P),
            And(box_p, Not(P)),
            Not(And(box_p, Not(P))),
        )

    def test_ordering_invariants(self):
        rng = random.Random(71)
        for _ in range(150):
            phi = random_formula(rng, 8, ["p", "q"])
            ix = build_index(phi)
            assert ix.entries[-1] == phi
            assert ix.n <= len(ix.entries) and ix.n >= 1
            pos = ix.position
            for f in ix.entries:
                if isinstance(f, Not):
                    assert pos[f] > pos[f.child]
                elif isinstance(f, And):
                    assert pos[f] > pos[f.left] and pos[f] > pos[f.right]
                elif isinstance(f, Box):
                    assert pos[f] > pos[f.child]

    def test_rejects_bimodal(self):
        with pytest.raises(ValueError):
            build_index(parse("[b]p", "bimodal"))

    def test_count_bounded_by_size(self):
        rng = random.Random(73)
        for _ in range(100):
            phi = random_formula(rng, 8, ["p", "q"])
            from densemodal import size

            assert build_index(phi).n <= size(phi)


class TestInitialFrame:
    def test_single_atom(self):
        frame = initial_frame(build_index(P))
        assert frame.profiles == {(0,), (1,)}
        assert len(frame.rel) == 4

    def test_falsum(self):
        frame = initial_frame(build_index(FALSUM))
        assert frame.profiles == {(0,)}

    def test_reflexivity_formula_has_four_profiles(self):
        frame = initial_frame(build_index(parse("[]p -> p")))
        assert len(frame.profiles) == 4
        # derived bits respect the structure
        for p, box_p, not_p, conj, top in frame.profiles:
            assert not_p == 1 - p
            assert conj == min(box_p, not_p)
            assert top == 1 - conj

    def test_relation_respects_boxes(self):
        ix = build_index(parse("[]p -> p"))
        frame = initial_frame(ix)
        for x, y in frame.rel:
            for i, j in ix.box_pairs:
                assert x[i] == 0 or y[j] == 1

    def test_free_bit_guard(self):
        phi = parse(" & ".join(f"q{i}" for i in range(FREE_BIT_LIMIT + 1)))
        with pytest.raises(ValueError, match=f"{FREE_BIT_LIMIT + 1} free bits exceed the limit of {FREE_BIT_LIMIT}"):
            initial_frame(build_index(phi))


class TestRefineAndFixpoint:
    def test_atom_is_immediately_stable(self):
        frame, iterations = fixpoint(P)
        assert iterations == 0
        assert frame == initial_frame(build_index(P))

    def test_total_relation_with_true_boxes_is_stable(self):
        from densemodal.kde import ProfileFrame

        ix = build_index(Box(MOD_A, P))
        survivors = frozenset(p for p in initial_frame(ix).profiles if p[1] == 1)
        total = frozenset((x, y) for x in survivors for y in survivors)
        frame = ProfileFrame(survivors, total)
        # every box bit is true and totality supplies every midpoint
        assert refine_frame(frame, ix) == frame

    def test_false_box_without_witness_is_pruned(self):
        from densemodal.kde import ProfileFrame

        ix = build_index(Box(MOD_A, P))
        doubter = next(p for p in initial_frame(ix).profiles if p[1] == 0)
        frame = ProfileFrame(frozenset({doubter}), frozenset())
        refined = refine_frame(frame, ix)
        assert doubter not in refined.profiles

    def test_refinement_shrinks(self):
        rng = random.Random(79)
        for _ in range(100):
            phi = random_formula(rng, 7, ["p"])
            ix = build_index(phi)
            frame = initial_frame(ix)
            refined = refine_frame(frame, ix)
            assert refined.profiles <= frame.profiles
            assert refined.rel <= frame.rel

    def test_reflexivity_countermodel_profile_survives(self):
        phi = parse("[]p -> p")
        frame, _ = fixpoint(phi)
        assert (0, 1, 1, 1, 0) in frame.profiles

    def test_fixpoint_frame_dense_and_nonempty(self):
        rng = random.Random(83)
        for _ in range(80):
            phi = random_formula(rng, 7, ["p", "q"])
            ix = build_index(phi)
            frame, iterations = fixpoint(phi)
            assert frame.profiles
            assert refine_frame(frame, ix) == frame
            m = frame_model(frame, ix, min(frame.profiles))
            assert is_dense(m)

    def test_iteration_bound(self):
        rng = random.Random(89)
        for _ in range(60):
            phi = random_formula(rng, 7, ["p"])
            ix = build_index(phi)
            start = initial_frame(ix)
            _, iterations = fixpoint(phi)
            assert iterations <= len(start.profiles) + len(start.rel)


class TestVerdicts:
    def test_density_axiom_valid(self):
        assert kde_valid(parse("[][]p -> []p"))

    def test_reflexivity_invalid(self):
        assert not kde_valid(parse("[]p -> p"))

    def test_top_valid(self):
        assert kde_valid(parse("true"))

    def test_sat_with_dense_witness(self):
        phi = parse("<>p & ~p")
        result = kde_sat(phi)
        assert result.verdict == SAT
        m = result.witness
        assert is_dense(m)
        assert model_check(m, m.root, phi)

    def test_witness_root_is_smallest_satisfying_profile(self):
        phi = parse("<>p & ~p")
        ix = build_index(phi)
        frame, _ = fixpoint(phi)
        order = sorted(frame.profiles)
        hits = [p for p in order if p[ix.n - 1] == 1]
        assert kde_sat(phi).witness.root == order.index(hits[0])

    def test_unsat_contradiction(self):
        assert kde_sat(parse("<>true & []false")).verdict == UNSAT

    def test_dual_density_axiom_negation_unsat(self):
        assert kde_sat(parse("~(<>p -> <><>p)")).verdict == UNSAT

    def test_valid_iff_negation_unsat(self):
        rng = random.Random(97)
        for _ in range(100):
            phi = random_formula(rng, 6, ["p"])
            assert kde_valid(phi) == (kde_sat(Not(phi)).verdict == UNSAT)

    def test_profiles_satisfy_their_bits(self):
        rng = random.Random(101)
        for _ in range(50):
            phi = random_formula(rng, 7, ["p", "q"])
            ix = build_index(phi)
            frame, _ = fixpoint(phi)
            order = sorted(frame.profiles)
            ids = {p: i for i, p in enumerate(order)}
            model = frame_model(frame, ix, order[0])
            for i, entry in enumerate(ix.entries):
                holds = truth_set(model, entry)
                for p in order:
                    assert (ids[p] in holds) == (p[i] == 1)


class TestKdeSolve:
    def test_one_index_and_one_fixpoint(self, monkeypatch):
        calls = {"build_index": 0, "fixpoint": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(kde_module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(kde_module, name, counted)
        kde_sat(parse("<>p & []q -> <>(p & q)"))
        assert calls == {"build_index": 1, "fixpoint": 1}

    def test_reads_agree_with_the_fixpoint(self):
        rng = random.Random(4242)
        for _ in range(120):
            phi = random_formula(rng, 9, ["p", "q"])
            result = kde_solve(phi)
            frame, iterations = fixpoint(phi)
            ix = build_index(phi)
            assert (result.frame, result.iterations, result.index.entries) == (frame, iterations, ix.entries)
            assert result.stats == {
                "edges": len(frame.rel),
                "iterations": iterations,
                "profiles": len(frame.profiles),
            }
            sat = kde_sat(phi)
            assert (sat.witness, sat.stats) == (result.witness(), result.stats)
            assert (sat.witness is None) == (sat.verdict == UNSAT)
            # Valid mode is SAT of the negation; it reads the same frame as
            # phi's own fixpoint, pointed at the least profile clearing phi.
            misses = sorted(p for p in frame.profiles if p[-1] == 0)
            assert kde_valid(phi) == (not misses)
            expected = frame_model(frame, ix, misses[0]) if misses else None
            assert counter_model(phi) == expected
            assert kde_sat(Not(phi)).stats == result.stats


# The 8-free-bit rung of the kde ladder: 256 profiles, 28,224 edges.
LADDER_8 = "[](p0 -> <>q0) & [](p1 -> <>q1)"


def differential_corpus():
    """2,000 random formulas with at most 7 free bits, every kde_corpus
    formula, and the 8-bit ladder rung."""
    rng = random.Random(2026)
    randoms = []
    while len(randoms) < 2000:
        phi = random_formula(rng, rng.randint(4, 30), ["p", "q", "r"])
        if len(build_index(phi).free_positions) <= 7:
            randoms.append(phi)
    corpus = all_formulas(7, ["p"]) + all_formulas(6, ["p", "q"])[::7]
    return randoms + corpus + [parse(LADDER_8)]


class TestReferenceAgreement:
    def test_fixpoint_matches_the_pairwise_reference(self):
        for phi in differential_corpus():
            ix = build_index(phi)
            assert initial_frame(ix) == reference.initial_frame(ix), phi
            frame, iterations = fixpoint(phi, ix)
            ref_frame, ref_iterations = reference.fixpoint(phi, ix)
            assert frame.profiles == ref_frame.profiles, phi
            assert frame.rel == ref_frame.rel, phi
            assert iterations == ref_iterations, phi

    def test_frame_model_matches_the_edge_set_reference(self):
        # Each result's model, pointed at the least profile setting the
        # target bit or else the least profile, against the former edge-set
        # frame_model and JSON form; the witness is that model or None.
        for phi in differential_corpus():
            result = kde_solve(phi)
            frame, ix = result.frame, result.index
            order = sorted(frame.profiles)
            root = next((p for p in order if p[-1] == 1), order[0])
            model = result.model
            assert result.witness() is (model if root[-1] else None), phi
            want = rule_reference.frame_model(frame, ix, root)
            assert list(model.worlds) == want.worlds, phi
            assert (model.ra, set(model.ra), len(model.ra)) == (want.ra, want.ra, len(want.ra)), phi
            assert all(edge in model.ra for edge in want.ra), phi
            assert (model.rb, model.valuation, model.root) == (set(), want.valuation, want.root), phi
            text = model_json_text(model, include_rb=False)
            assert text == json.dumps(rule_reference.model_to_json(want, include_rb=False), sort_keys=True), phi

    def test_frame_model_reads_edges_between_copied_profiles(self):
        # frame_model looks edge ends up by value, so a frame whose edges hold
        # equal copies of its profiles must give the same model.
        rng = random.Random(2027)
        for _ in range(40):
            phi = random_formula(rng, 12, ["p", "q"])
            frame, _ = fixpoint(phi)
            ix = build_index(phi)
            copied = ProfileFrame(frame.profiles, frozenset((tuple([*x]), tuple([*y])) for x, y in frame.rel))
            root = max(frame.profiles)
            assert frame_model(copied, ix, root) == frame_model(frame, ix, root), phi

    def test_refinement_keeps_the_input_edge_tuples(self):
        # 7 free bits; one refinement round removes profiles and edges.
        ix = build_index(parse("<>p & [](p -> <>~p) & [](~p -> <>p) & []q"))
        assert len(ix.free_positions) == 7
        frame = initial_frame(ix)
        refined = refine_frame(frame, ix)
        assert 0 < len(refined.rel) < len(frame.rel)
        assert refined == reference.refine_frame(frame, ix)
        originals = {edge: edge for edge in frame.rel}
        assert all(originals[edge] is edge for edge in refined.rel)

    def test_refinement_matches_the_reference_off_the_fixpoint_path(self):
        # Random sub-frames of initial frames, each without about 20% of the
        # profiles and 30% of the edges: profiles with equal box requirements
        # get different successor sets, and some midpoints fail their own
        # false boxes in the round that tests them.
        rng = random.Random(2029)
        formulas = [
            phi for phi in all_formulas(6, ["p", "q"])[::23]
            if 3 <= len(build_index(phi).free_positions) <= 5
        ]
        assert len(formulas) == 27
        for phi in formulas:
            ix = build_index(phi)
            start = initial_frame(ix)
            for _ in range(3):
                kept = frozenset(p for p in sorted(start.profiles) if rng.random() >= 0.2)
                rel = frozenset(
                    edge for edge in sorted(start.rel)
                    if edge[0] in kept and edge[1] in kept and rng.random() >= 0.3
                )
                frame = ProfileFrame(kept, rel)
                # Refine on to the sub-frame's own fixpoint.  Each round keeps
                # the input's edge tuples, and returns its input exactly when
                # the reference removes nothing.
                while True:
                    expected = reference.refine_frame(frame, ix)
                    refined = refine_frame(frame, ix)
                    assert refined == expected, phi
                    originals = {edge: edge for edge in frame.rel}
                    assert all(originals[edge] is edge for edge in refined.rel), phi
                    assert (refined is frame) == (expected == frame), phi
                    if refined is frame:
                        break
                    frame = refined

    def test_a_round_returns_its_input_exactly_when_it_removes_nothing(self):
        # Every round on the fixpoint path: the last returns its input
        # object, and no earlier one does.
        for phi in differential_corpus():
            ix = build_index(phi)
            frame = initial_frame(ix)
            while True:
                refined = refine_frame(frame, ix)
                removes_nothing = reference.refine_frame(frame, ix) == frame
                assert (refined is frame) == removes_nothing, phi
                if removes_nothing:
                    break
                frame = refined

    def test_a_round_that_keeps_every_profile_can_still_drop_edges(self):
        # Round 0 of [][]p keeps all 8 profiles but drops 4 of its 36 edges,
        # so profile survival alone does not make a round a no-op.  Round 1
        # removes 2 profiles and round 2 returns its input.
        phi = parse("[][]p")
        ix = build_index(phi)
        frames = [initial_frame(ix)]
        for _ in range(3):
            frames.append(refine_frame(frames[-1], ix))
        assert [(len(f.profiles), len(f.rel)) for f in frames] == [(8, 36), (8, 32), (6, 22), (6, 22)]
        assert [after is before for before, after in zip(frames, frames[1:])] == [False, False, True]
        assert frames[1] == reference.refine_frame(frames[0], ix)
        assert fixpoint(phi, ix) == (frames[2], 2)

    def test_fixpoint_refines_once_more_than_it_iterates(self, monkeypatch):
        calls = 0

        def counted(frame, ix):
            nonlocal calls
            calls += 1
            return refine_frame(frame, ix)

        monkeypatch.setattr(kde_module, "refine_frame", counted)
        rng = random.Random(2031)
        for phi in [parse("[][]p"), parse(LADDER_8)] + [random_formula(rng, 9, ["p", "q"]) for _ in range(60)]:
            calls = 0
            _, iterations = fixpoint(phi)
            assert calls == iterations + 1, phi


class TestMemory:
    def test_ladder_8_peak_stays_under_7_mb(self):
        # The 8-bit rung's whole solve, witness check included, read a 5.6 MB
        # tracemalloc peak on Python 3.10-3.13; rebuilding the edge set in
        # the fixpoint's last round, which removes nothing, read 8.2 MB.
        phi = parse(LADDER_8)
        tracemalloc.start()
        try:
            kde_sat(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7_000_000, peak
