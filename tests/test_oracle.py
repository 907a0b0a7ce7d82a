import ast
import copy
import json
import os
import pickle
import random
import time
from functools import lru_cache

import pytest

from densemodal import (
    And,
    Atom,
    Box,
    InvariantError,
    KripkeModel,
    MOD_A,
    MOD_B,
    Not,
    all_formulas,
    bounded_search,
    is_dense,
    is_weakly_dense,
    k_valid,
    model_check,
    model_from_json,
    model_json_text,
    parse,
    truth_set,
    verify,
)
from densemodal.oracle import (
    ALL,
    DENSE,
    WEAKLY_DENSE,
    ModelTables,
    _dense_relations,
    _frames,
    _generators,
    _relations,
    _succ_masks,
    _weakly_dense_pairs,
)
from conftest import random_formula
from oracle_reference import first_models
import rule_reference as reference

P, Q = Atom("p"), Atom("q")


def single_world(**kw):
    return KripkeModel(worlds=[0], ra=set(), rb=set(), valuation={}, root=0, **kw)


# A second satisfaction evaluator, deliberately written in a different shape
# (successor lists precomputed, truth by structural recursion over those).


def naive_check(model, world, phi):
    succ = {MOD_A: {}, MOD_B: {}}
    for w in model.worlds:
        succ[MOD_A][w] = [t for (s, t) in model.ra if s == w]
        succ[MOD_B][w] = [t for (s, t) in model.rb if s == w]

    def ev(w, f):
        if isinstance(f, Atom):
            return w in model.valuation.get(f.name, set())
        if isinstance(f, Not):
            return not ev(w, f.child)
        if isinstance(f, And):
            return ev(w, f.left) and ev(w, f.right)
        if isinstance(f, Box):
            return all(ev(t, f.child) for t in succ[f.modality][w])
        return False  # falsum

    return ev(world, phi)


class TestModelCheck:
    def test_box_vacuous(self):
        assert model_check(single_world(), 0, parse("[]false"))

    def test_diamond_needs_successor(self):
        assert not model_check(single_world(), 0, parse("<>true"))

    def test_bimodal_example(self):
        m = KripkeModel(
            worlds=[0, 1],
            ra={(0, 1)},
            rb={(1, 1)},
            valuation={"p": set()},
            root=0,
        )
        assert model_check(m, 0, parse("~[a]p", "bimodal"))

    def test_unknown_world(self):
        with pytest.raises(ValueError):
            model_check(single_world(), 3, P)

    def test_double_entry_random(self):
        rng = random.Random(61)
        for _ in range(150):
            n = rng.randint(1, 4)
            worlds = list(range(n))
            ra = {(s, t) for s in worlds for t in worlds if rng.random() < 0.4}
            rb = {(s, t) for s in worlds for t in worlds if rng.random() < 0.4}
            val = {
                name: {w for w in worlds if rng.random() < 0.5}
                for name in ("p", "q")
            }
            m = KripkeModel(worlds, ra, rb, val, root=0)
            phi = random_formula(rng, 7, ["p", "q"], (MOD_A, MOD_B))
            ts = truth_set(m, phi)
            for w in worlds:
                expected = naive_check(m, w, phi)
                assert model_check(m, w, phi) == expected
                assert (w in ts) == expected


    def test_deep_box_chain_on_a_cycle_is_linear(self):
        # Every world sees both worlds, so a checker that re-evaluates each
        # box body per successor visits 2**170 paths.
        complete = {(s, t) for s in (0, 1) for t in (0, 1)}
        phi = Q
        for _ in range(170):
            phi = Box(MOD_A, phi)
        start = time.monotonic()
        assert model_check(KripkeModel([0, 1], complete, set(), {"q": {0, 1}}, 0), 0, phi)
        assert not model_check(KripkeModel([0, 1], complete, set(), {"q": {0}}, 0), 0, phi)
        elapsed = time.monotonic() - start
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def scattered_fields(rng, count):
    """Random model fields whose world ids are unsorted and non-contiguous.

    Edge rates run from sparse (many worlds without successors) to dense,
    and rb is drawn apart from ra.
    """
    for _ in range(count):
        n = rng.randint(1, 6)
        worlds = rng.sample(range(3, 40), n)
        rate_a, rate_b = rng.choice((0.15, 0.4, 0.7)), rng.choice((0.15, 0.4, 0.7))
        ra = {(s, t) for s in worlds for t in worlds if rng.random() < rate_a}
        rb = {(s, t) for s in worlds for t in worlds if rng.random() < rate_b}
        val = {name: {w for w in worlds if rng.random() < 0.5} for name in ("p", "q")}
        yield worlds, ra, rb, val, rng.choice(worlds)


def scattered_models(rng, count):
    return (KripkeModel(*fields) for fields in scattered_fields(rng, count))


class TestBitsetTables:
    """The bitset checks against the set-based form they replaced."""

    CORPUS = all_formulas(5, ["p", "q"], modalities=(MOD_A, MOD_B))

    def test_truth_sets_and_density_match_the_set_reference(self):
        models = list(scattered_models(random.Random(73), 30))
        models.append(KripkeModel([7, 3, 12], {(7, 12), (12, 3)}, {(3, 7), (12, 12)}, {"p": {3}}, 12))
        for m in models:
            tables = ModelTables(m)
            for phi in self.CORPUS:
                expected = reference.truth_set(m, phi)
                assert tables.worlds_in(tables.truth(phi)) == expected, (m, phi)
                assert truth_set(m, phi) == expected, (m, phi)
            assert is_dense(m) == reference._weakly_dense(m.worlds, m.ra, m.ra)
            assert is_weakly_dense(m) == reference._weakly_dense(m.worlds, m.ra, m.rb)

    def test_verify_names_the_first_failure(self):
        m = KripkeModel([7, 3, 12], {(7, 12), (12, 3)}, {(12, 3)}, {"p": {3}}, 7)
        verify(m, [parse("<a><a>p", "bimodal")], "all", "w")
        with pytest.raises(InvariantError, match="^w fails model_check on <>p$"):
            verify(m, [parse("<a><a>p", "bimodal"), parse("<a>p", "bimodal")], "dense", "w")
        with pytest.raises(InvariantError, match="^w frame is not dense$"):
            verify(m, [parse("<a><a>p", "bimodal")], "dense", "w")
        with pytest.raises(InvariantError, match="^w frame is not weakly dense$"):
            verify(m, [], "weakly_dense", "w")
        m = KripkeModel([7, 3, 12], {(7, 12), (12, 3)}, {(12, 12), (3, 3)}, {"p": {3}}, 7)
        verify(m, [], "weakly_dense", "w")


class TestModelForms:
    """Successor masks against the edge sets a model is built from."""

    def test_views_and_text_match_the_edge_sets(self):
        cases = [([7, 3, 12], {(7, 12), (12, 3)}, {(3, 7), (12, 12)}, {"p": {3}, "q": set()}, 12)]
        cases.extend(scattered_fields(random.Random(79), 80))
        for worlds, ra, rb, val, root in cases:
            m = KripkeModel(worlds, ra, rb, val, root)
            assert (list(m.worlds), m.ra, m.rb, m.valuation, m.root) == (sorted(worlds), ra, rb, val, root)
            assert (set(m.ra), set(m.rb), len(m.ra), len(m.rb)) == (ra, rb, len(ra), len(rb))
            for edge in [(s, t) for s in worlds for t in worlds] + [(1, 2), "st", None]:
                assert ((edge in m.ra), (edge in m.rb)) == ((edge in ra), (edge in rb))
            want = reference.EdgeModel(worlds, ra, rb, val, root)
            for include_rb in (True, False):
                text = model_json_text(m, include_rb)
                assert text == json.dumps(reference.model_to_json(want, include_rb), sort_keys=True)
            again = KripkeModel.from_masks(m.worlds, m.succ_a, m.succ_b, m.val_masks, m.root)
            assert again == m
            assert model_json_text(again) == model_json_text(m)

    def test_from_masks_rejects_stray_bits_and_unsorted_worlds(self):
        m = KripkeModel.from_masks([5, 9], [0b10, 0], [0, 0b11], {"p": 0b01}, 9)
        assert (set(m.ra), set(m.rb), m.valuation) == ({(5, 9)}, {(9, 5), (9, 9)}, {"p": {5}})
        for succ_a, succ_b, val in (
            ([0b100, 0], [0, 0], {}),
            ([0, 0], [0, 0b101], {}),
            ([0, 0], [0, 0], {"p": 0b110}),
            ([-1, 0], [0, 0], {}),
        ):
            with pytest.raises(ValueError, match="^mask bit past the world count$"):
                KripkeModel.from_masks([5, 9], succ_a, succ_b, val, 9)
        with pytest.raises(ValueError, match="^a model needs one successor mask per world$"):
            KripkeModel.from_masks([5, 9], [0], [0, 0], {}, 9)
        with pytest.raises(ValueError, match="^root must be a world$"):
            KripkeModel.from_masks([5, 9], [0, 0], [0, 0], {}, 0)
        with pytest.raises(ValueError, match="^worlds must be in ascending order$"):
            KripkeModel.from_masks([9, 5], [0, 0], [0, 0], {}, 9)
        with pytest.raises(ValueError, match="^duplicate worlds$"):
            KripkeModel.from_masks([5, 5], [0, 0], [0, 0], {}, 5)

    def test_models_are_immutable(self):
        m = KripkeModel([0, 1], {(0, 1)}, {(1, 0)}, {"p": {1}}, 0)
        for name in ("worlds", "ra", "rb", "valuation", "root", "succ_a", "val_masks", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(AttributeError):
            m.ra.add((1, 1))
        with pytest.raises(AttributeError):
            m.valuation["p"].add(0)
        with pytest.raises(TypeError):
            m.val_masks["p"] = 0b11
        with pytest.raises(TypeError):
            m.position[2] = 0
        with pytest.raises(TypeError):
            m.valuation["q"] = {0}
        assert m.valuation == {"p": {1}}
        assert pickle.loads(pickle.dumps(m)) == m
        assert copy.deepcopy(m) == m != KripkeModel([0, 1], {(0, 1)}, {(1, 0)}, {"p": {0}}, 0)


def test_oracle_imports_no_solver_module():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "densemodal", "oracle.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    solvers = ("saturation", "windows", "kdeab", "kde")
    assert not [name for name in imported if set(name.split(".")) & set(solvers)]
    assert "formula" in imported


def frames(rng):
    """Every (ra, rb) over up to 2 worlds; every ra over 3 worlds, rb sampled."""
    for n in (1, 2, 3):
        pairs = [(s, t) for s in range(n) for t in range(n)]
        rels = [{pairs[i] for i in range(len(pairs)) if m >> i & 1} for m in range(1 << len(pairs))]
        for ra in rels:
            for rb in (rels if n < 3 else [ra, *rng.sample(rels, 3)]):
                yield KripkeModel(list(range(n)), ra, rb, {}, 0)


@lru_cache(maxsize=None)
def generating_worlds(n, mask):
    """The worlds that reach every world through the relation with this mask, by walking its edges."""
    edges = [(s, t) for s in range(n) for t in range(n) if mask >> (s * n + t) & 1]
    return {w for w in range(n) if reached(w, edges) == set(range(n))}


def reached(world, edges):
    seen, todo = {world}, [world]
    while todo:
        s = todo.pop()
        for a, t in edges:
            if a == s and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestFrameClasses:
    def test_density_matches_reference(self):
        seen = set()
        for m in frames(random.Random(67)):
            dense, weak = is_dense(m), is_weakly_dense(m)
            assert dense == reference.is_dense(m)
            assert weak == reference.is_weakly_dense(m)
            seen.add((dense, weak))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_mask_tables_match_reference(self):
        # The oracle's frame tables hold successor masks, or relation masks
        # that index _relations(n); the reference's hold relation masks.  The
        # weakly dense pairs and _frames must give the reference's frames in
        # the same order, less those in which no world reaches every world.
        for n in (1, 2, 3):
            def succ(mask, n=n):
                return _succ_masks(n, mask)

            assert _relations(n) == tuple(map(succ, range(1 << (n * n))))
            assert _dense_relations(n) == reference.dense_masks(n)
            assert _weakly_dense_pairs(n) == tuple(
                (succ(ra), succ(rb))
                for ra, rb in reference.weakly_dense_mask_pairs(n)
                if generating_worlds(n, ra | rb)
            )
            for frame_class in (ALL, DENSE, WEAKLY_DENSE):
                for bimodal in (False, True):
                    got = list(_frames(n, frame_class, bimodal))
                    want = [
                        (succ(ra), succ(rb))
                        for ra, rb in reference.frame_masks(n, frame_class, bimodal)
                        if generating_worlds(n, ra | rb)
                    ]
                    assert got == want, (n, frame_class, bimodal)

    def test_generator_table_matches_a_walk(self):
        for n in (1, 2, 3):
            assert _generators(n) == tuple(
                sum(1 << w for w in generating_worlds(n, m)) for m in range(1 << (n * n))
            )
        table = _generators(4)
        for m in random.Random(67).sample(range(1 << 16), 2000):
            assert table[m] == sum(1 << w for w in generating_worlds(4, m)), m

    def test_empty_relation_is_dense(self):
        assert is_dense(single_world())
        assert is_weakly_dense(single_world())

    def test_reflexive_world_is_dense(self):
        m = KripkeModel([0], {(0, 0)}, set(), {}, 0)
        assert is_dense(m)

    def test_lone_a_edge_not_weakly_dense(self):
        m = KripkeModel([0, 1], {(0, 1)}, set(), {}, 0)
        assert not is_weakly_dense(m)

    def test_interpolated_edge_weakly_dense(self):
        m = KripkeModel([0, 1], {(0, 1)}, {(1, 1)}, {}, 0)
        assert is_weakly_dense(m)


class TestBoundedSearch:
    def test_first_weakly_dense_model_of_a_diamond(self):
        m = bounded_search({parse("~[a]p", "bimodal")}, "weakly_dense", 2, 1)
        assert m is not None
        # The enumeration order makes the single looping world come first.
        assert json.loads(model_json_text(m)) == {
            "worlds": [0],
            "ra": [[0, 0]],
            "rb": [[0, 0]],
            "val": {"p": []},
            "root": 0,
        }

    def test_first_dense_model(self):
        m = bounded_search({parse("<>p & ~p")}, "dense", 3, 1)
        assert json.loads(model_json_text(m, include_rb=False)) == {
            "worlds": [0, 1],
            "ra": [[0, 0], [0, 1]],
            "val": {"p": [1]},
            "root": 0,
        }

    def test_contradiction_has_no_model(self):
        assert bounded_search({parse("p & ~p")}, "all", 3, 1) is None

    def test_density_axiom_negation_has_no_dense_model(self):
        assert bounded_search({parse("~([][]p -> []p)")}, "dense", 3, 1) is None

    def test_results_check_and_fit_class(self):
        rng = random.Random(67)
        for _ in range(60):
            phi = random_formula(rng, 6, ["p"], (MOD_A, MOD_B))
            m = bounded_search({phi}, "weakly_dense", 2, 1)
            if m is not None:
                assert model_check(m, m.root, phi)
                assert is_weakly_dense(m)

    def test_guard_raises_when_space_too_large(self):
        with pytest.raises(ValueError):
            bounded_search({parse("p")}, "all", 9, 1)
        with pytest.raises(ValueError):
            bounded_search({parse("p & q & r", "unimodal")}, "all", 3, 2)


# Its smallest model has four worlds: a root and three successors.
FOUR_WORLDS = "~p & ~q & <>(~p & q) & <>(p & ~q) & <>(p & q)"

# (formulas, frame classes, max_worlds) on which bounded_search must return
# what the search over every frame returns.
GENERATED_CASES = {
    "one-atom": (lambda: all_formulas(6, ["p"]), (DENSE, ALL), 3),
    "one-atom-bimodal": (lambda: all_formulas(5, ["p"], (MOD_A, MOD_B)), (WEAKLY_DENSE, ALL), 2),
    "two-atoms": (lambda: all_formulas(5, ["p", "q"])[::3], (DENSE,), 3),
    "four-worlds": (lambda: [parse(FOUR_WORLDS)], (ALL, DENSE), 4),
}


class TestGeneratedFrames:
    @pytest.mark.parametrize("case", GENERATED_CASES)
    def test_first_model_matches_the_search_over_every_frame(self, case):
        formulas, classes, max_worlds = GENERATED_CASES[case]
        for phi in formulas():
            want = first_models({phi}, classes, max_worlds)
            for frame_class in classes:
                got = bounded_search({phi}, frame_class, max_worlds, 2)
                expected = want[frame_class]
                assert (got is None) == (expected is None), (frame_class, phi)
                if got is not None:
                    assert model_json_text(got) == model_json_text(expected), (frame_class, phi)
                    assert reached(got.root, [*got.ra, *got.rb]) == set(got.worlds), (frame_class, phi)
                    if case == "four-worlds":
                        assert len(got.worlds) == 4


class TestKValidity:
    def test_distribution_theorem(self):
        assert k_valid(parse("[](p & q) -> []p"))

    def test_density_axiom_not_k_valid(self):
        assert not k_valid(parse("[][]p -> []p"))

    def test_identity(self):
        assert k_valid(parse("p -> p"))

    def test_rejects_bimodal(self):
        with pytest.raises(ValueError):
            k_valid(parse("[b]p", "bimodal"))

    def test_matches_bounded_search_on_small_corpus(self):
        # Loops keep countermodels small: three worlds are conclusive for
        # every formula of this size, so the equivalence is exact here.
        from densemodal import all_formulas

        for phi in all_formulas(5, ["p"]):
            found = bounded_search({Not(phi)}, "all", 3, 1)
            assert k_valid(phi) == (found is None)


class TestJson:
    def test_round_trip(self):
        m = KripkeModel([0, 1], {(0, 1)}, {(1, 0)}, {"p": {1}}, 0)
        again = model_from_json(json.loads(model_json_text(m)))
        assert again.worlds == m.worlds
        assert again.ra == m.ra
        assert again.rb == m.rb
        assert again.valuation == m.valuation
        assert again.root == m.root

    def test_unimodal_omits_rb(self):
        m = KripkeModel([0], set(), set(), {}, 0)
        data = json.loads(model_json_text(m, include_rb=False))
        assert "rb" not in data
        assert model_from_json(data).rb == set()

    def test_text_matches_json_dumps(self):
        # The writer against json.dumps of the edge-set reference's dict form.
        rng = random.Random(71)
        fields = [
            ([0], set(), set(), {}, 0),
            ([0, 1], {(0, 1)}, {(1, 0)}, {"p": {1}}, 1),
            ([2, 0, 1], set(), {(2, 2)}, {"q": set(), "p": {0, 2}, 'a"\u00e9': {1}}, 0),
        ]
        for _ in range(50):
            n = rng.randint(1, 12)
            edges = [(s, t) for s in range(n) for t in range(n)]
            fields.append(
                (
                    rng.sample(range(n), n),
                    set(rng.sample(edges, rng.randint(0, len(edges)))),
                    set(rng.sample(edges, rng.randint(0, len(edges)))),
                    {
                        name: set(rng.sample(range(n), rng.randint(0, n)))
                        for name in rng.sample("pqrs", rng.randint(0, 4))
                    },
                    rng.randrange(n),
                )
            )
        for args in fields:
            m, want = KripkeModel(*args), reference.EdgeModel(*args)
            for include_rb in (True, False):
                expected = json.dumps(reference.model_to_json(want, include_rb), sort_keys=True)
                assert model_json_text(m, include_rb) == expected

    def test_duplicate_worlds_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate worlds"):
            model_from_json({"worlds": [0, 0], "ra": [], "val": {}, "root": 0})
        with pytest.raises(ValueError, match="duplicate worlds"):
            KripkeModel([3, 7, 3], set(), set(), {}, 3)

    def test_non_int_world_ids_are_rejected(self):
        # The writer prints world ids as they are: a string id would make
        # text that is not JSON, and a bool id would print as True.
        for data in (
            {"worlds": ["a", "b"], "ra": [["a", "b"]], "root": "a"},
            {"worlds": [True, False], "ra": [], "root": True},
            {"worlds": [0, 1], "ra": [], "root": True},
            {"worlds": [0, "a"], "ra": [], "root": 0},
            {"worlds": [0.0], "ra": [], "root": 0.0},
        ):
            with pytest.raises(ValueError, match="^worlds and the root must be ints$"):
                model_from_json(data)
        with pytest.raises(ValueError, match="^worlds and the root must be ints$"):
            KripkeModel.from_masks([False, True], [0, 0], [0, 0], {}, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            KripkeModel([], set(), set(), {}, 0)
        with pytest.raises(ValueError):
            KripkeModel([0], {(0, 1)}, set(), {}, 0)
        with pytest.raises(ValueError):
            KripkeModel([0], set(), set(), {"p": {2}}, 0)
