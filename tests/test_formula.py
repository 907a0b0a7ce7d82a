import copy
import gc
import os
import pickle
import random
import subprocess
import sys

import pytest

from densemodal import (
    And,
    Atom,
    BIMODAL,
    Box,
    FALSUM,
    Falsum,
    MOD_A,
    MOD_B,
    Not,
    ParseError,
    UNIMODAL,
    all_formulas,
    atom_names,
    box_inverse,
    csf,
    degree,
    is_unimodal,
    measures,
    parse,
    render,
    sf,
    size,
    sort_key,
)
from densemodal import formula
from densemodal.formula import MAX_DEPTH
from conftest import NESTINGS, random_formula
from frontend_reference import former_tokenize, random_text
import rule_reference

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def boxa(f):
    return Box(MOD_A, f)


def boxb(f):
    return Box(MOD_B, f)


class TestParse:
    def test_conjunction_of_literals(self):
        assert parse("p & ~q") == And(P, Not(Q))

    def test_diamond_chain_desugars_mechanically(self):
        # <>x becomes ~[]~x and -> becomes ~(l & ~r); no double negations
        # are collapsed along the way.
        dia_p = Not(boxa(Not(P)))
        dia_dia_p = Not(boxa(Not(dia_p)))
        assert parse("<>p -> <><>p") == Not(And(dia_p, Not(dia_dia_p)))

    def test_weak_density_axiom(self):
        expected = Not(And(boxa(boxb(P)), Not(boxa(P))))
        assert parse("[a][b]p -> [a]p", BIMODAL) == expected

    def test_constants_and_or(self):
        assert parse("true") == Not(FALSUM)
        assert parse("false") == FALSUM
        assert parse("p | q") == Not(And(Not(P), Not(Q)))

    def test_right_associativity(self):
        assert parse("p & q & r") == And(P, And(Q, R))
        assert parse("p -> q -> r") == parse("p -> (q -> r)")

    def test_precedence(self):
        assert parse("p & q | r") == parse("(p & q) | r")
        assert parse("p | q -> r") == parse("(p | q) -> r")

    def test_mode_rejections(self):
        with pytest.raises(ParseError):
            parse("[a]p", UNIMODAL)
        with pytest.raises(ParseError):
            parse("<b>p", UNIMODAL)
        with pytest.raises(ParseError):
            parse("[]p", BIMODAL)
        with pytest.raises(ParseError):
            parse("<>p", BIMODAL)

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("p & ")
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse("p ? q")
        assert err.value.position == 2
        with pytest.raises(ParseError):
            parse("(p & q")
        with pytest.raises(ParseError):
            parse("p q")


class TestMeasures:
    def test_atom(self):
        assert measures(P) == (0, 1)

    def test_nested_boxes(self):
        assert measures(boxa(boxb(P))) == (2, 3)

    def test_parsed_example(self):
        assert measures(parse("[]p & ~p")) == (1, 5)

    def test_size_compositional(self):
        rng = random.Random(7)
        for _ in range(200):
            l = random_formula(rng, 5, ["p", "q"])
            r = random_formula(rng, 5, ["p", "q"])
            assert size(And(l, r)) == 1 + size(l) + size(r)
            assert size(Not(l)) == 1 + size(l)
            assert size(boxa(l)) == 1 + size(l)
            assert degree(boxa(l)) == 1 + degree(l)


class TestClosures:
    def test_csf_negated_conjunction(self):
        got = csf({Not(And(P, Q))})
        assert got == frozenset({Not(And(P, Q)), And(P, Q), Not(P), P, Not(Q), Q})

    def test_csf_fixes_atoms(self):
        assert csf({P}) == frozenset({P})

    def test_csf_is_box_opaque(self):
        f = boxa(And(P, Q))
        assert csf({f}) == frozenset({f})

    def test_sf_unfolds_boxes(self):
        assert sf({boxa(P)}) == frozenset({boxa(P), P})

    def test_sf_negated_box(self):
        # ~[b]~p unfolds to ~~p literally; the double negation is kept.
        f = Not(boxb(Not(P)))
        got = sf({f})
        assert got == frozenset({f, boxb(Not(P)), Not(Not(P)), Not(P), P})

    def test_sf_matches_csf_on_boxfree(self):
        u = {And(P, Q)}
        assert sf(u) == csf(u) == frozenset({And(P, Q), P, Q})

    def test_inclusion_and_idempotence(self):
        rng = random.Random(11)
        for _ in range(300):
            u = frozenset(
                random_formula(rng, 6, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(0, 3))
            )
            c, s = csf(u), sf(u)
            assert u <= c <= s
            assert csf(c) == c
            assert sf(s) == s

    def test_monotone(self):
        rng = random.Random(13)
        for _ in range(200):
            u = frozenset(
                random_formula(rng, 5, ["p", "q"]) for _ in range(rng.randint(0, 3))
            )
            v = u | {random_formula(rng, 5, ["p", "q"])}
            assert csf(u) <= csf(v)
            assert sf(u) <= sf(v)


class TestClosureReference:
    """csf and sf share one walker; the two former walkers are the reference."""

    @staticmethod
    def seeds():
        rng = random.Random(29)
        for _ in range(2000):
            yield frozenset(
                random_formula(rng, 6, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            )
        for phi in all_formulas(6, ["p"], (MOD_A, MOD_B)):
            yield frozenset({phi})

    def test_closures_match_the_former_walkers(self):
        for u in self.seeds():
            s = sf(u)
            assert csf(u) == rule_reference.csf(u), u
            assert s == rule_reference.sf(u), u
            assert csf(s) == s, u


class TestBoxInverse:
    def test_only_matching_boxes(self):
        u = {boxa(P), boxb(Q), Not(boxa(R))}
        assert box_inverse(u, MOD_A) == frozenset({P})

    def test_collects_all_bodies(self):
        u = {boxa(P), boxa(And(Q, R))}
        assert box_inverse(u, MOD_A) == frozenset({P, And(Q, R)})

    def test_no_boxes(self):
        assert box_inverse({P, Not(Q)}, MOD_B) == frozenset()

    def test_degree_drop(self):
        rng = random.Random(17)
        for _ in range(200):
            u = frozenset(
                random_formula(rng, 6, ["p"], (MOD_A, MOD_B)) for _ in range(3)
            )
            for m in (MOD_A, MOD_B):
                inv = box_inverse(u, m)
                if inv:
                    assert max(degree(f) for f in inv) <= max(degree(f) for f in u) - 1


class TestRender:
    def test_round_trip_random(self):
        rng = random.Random(19)
        for _ in range(400):
            f = random_formula(rng, 9, ["p", "q"], (MOD_A, MOD_B))
            text = render(f, BIMODAL)
            assert parse(text, BIMODAL) == f
            assert render(parse(text, BIMODAL), BIMODAL) == text

    def test_round_trip_unimodal(self):
        rng = random.Random(23)
        for _ in range(400):
            f = random_formula(rng, 9, ["p", "q"])
            text = render(f, UNIMODAL)
            assert parse(text, UNIMODAL) == f

    def test_sugar(self):
        assert render(parse("[](p -> q)")) == "[](p -> q)"
        assert render(parse("true")) == "true"
        assert render(parse("<>p")) == "<>p"
        assert render(parse("p | q")) == "p | q"

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            render(boxb(P), UNIMODAL)
        assert render(boxb(P)) == "[b]p"


class TestAllFormulas:
    def test_unimodal_counts(self):
        counts = [
            len([f for f in all_formulas(k, ["p"]) if size(f) == k])
            for k in range(1, 8)
        ]
        assert counts == [2, 4, 12, 40, 144, 544, 2128]

    def test_distinct_and_ordered(self):
        fs = all_formulas(5, ["p", "q"], (MOD_A, MOD_B))
        assert len(fs) == len(set(fs))
        sizes = [size(f) for f in fs]
        assert sizes == sorted(sizes)


# --------------------------------------------------------------------------
# Reference versions of the measures: the recursive definitions, computed
# from the tree on every call.  The package stores sort key and degree on
# each node and walks the tree iteratively for the others.


def ref_flat_sort_key(phi):
    """The stored key: the preorder tokens of the tree, one walk per call."""
    tokens = []

    def walk(f):
        if isinstance(f, Falsum):
            tokens.append(0)
        elif isinstance(f, Atom):
            tokens.extend((1, f.name))
        elif isinstance(f, Not):
            tokens.append(2)
            walk(f.child)
        elif isinstance(f, And):
            tokens.append(3)
            walk(f.left)
            walk(f.right)
        else:
            tokens.extend((4, f.modality))
            walk(f.child)

    walk(phi)
    return tuple(tokens)


def ref_sort_key(phi):
    """The nested key the stored flat key replaced; it orders the same."""
    if isinstance(phi, Falsum):
        return (0,)
    if isinstance(phi, Atom):
        return (1, phi.name)
    if isinstance(phi, Not):
        return (2, ref_sort_key(phi.child))
    if isinstance(phi, And):
        return (3, ref_sort_key(phi.left), ref_sort_key(phi.right))
    return (4, phi.modality, ref_sort_key(phi.child))


def ref_degree(phi):
    if isinstance(phi, (Atom, Falsum)):
        return 0
    if isinstance(phi, Not):
        return ref_degree(phi.child)
    if isinstance(phi, And):
        return max(ref_degree(phi.left), ref_degree(phi.right))
    return 1 + ref_degree(phi.child)


def ref_size(phi):
    if isinstance(phi, (Atom, Falsum)):
        return 1
    if isinstance(phi, Not):
        return 1 + ref_size(phi.child)
    if isinstance(phi, And):
        return 1 + ref_size(phi.left) + ref_size(phi.right)
    return 1 + ref_size(phi.child)


def ref_atom_names(phi):
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    if isinstance(phi, Falsum):
        return frozenset()
    if isinstance(phi, Not):
        return ref_atom_names(phi.child)
    if isinstance(phi, And):
        return ref_atom_names(phi.left) | ref_atom_names(phi.right)
    return ref_atom_names(phi.child)


def ref_is_unimodal(phi):
    if isinstance(phi, (Atom, Falsum)):
        return True
    if isinstance(phi, Not):
        return ref_is_unimodal(phi.child)
    if isinstance(phi, And):
        return ref_is_unimodal(phi.left) and ref_is_unimodal(phi.right)
    return phi.modality == MOD_A and ref_is_unimodal(phi.child)


def ref_equal(f, g):
    """Structural equality, field by field."""
    if type(f) is not type(g):
        return False
    if isinstance(f, Falsum):
        return True
    if isinstance(f, Atom):
        return f.name == g.name
    if isinstance(f, Not):
        return ref_equal(f.child, g.child)
    if isinstance(f, And):
        return ref_equal(f.left, g.left) and ref_equal(f.right, g.right)
    return f.modality == g.modality and ref_equal(f.child, g.child)


def rebuild(phi):
    """phi built again, node by node, through the constructors."""
    if isinstance(phi, Falsum):
        return Falsum()
    if isinstance(phi, Atom):
        return Atom(str(phi.name))
    if isinstance(phi, Not):
        return Not(rebuild(phi.child))
    if isinstance(phi, And):
        return And(rebuild(phi.left), rebuild(phi.right))
    return Box(phi.modality, rebuild(phi.child))


def _corpus(seed, modalities, count=2000, budget=10):
    rng = random.Random(seed)
    return [random_formula(rng, budget, ["p", "q"], modalities) for _ in range(count)]


class TestStoredMeasures:
    @pytest.mark.parametrize("modalities", [(MOD_A,), (MOD_A, MOD_B)])
    def test_match_the_recursive_definitions(self, modalities):
        for phi in _corpus(29, modalities):
            assert sort_key(phi) == ref_flat_sort_key(phi)
            assert degree(phi) == ref_degree(phi)
            assert size(phi) == ref_size(phi)
            assert atom_names(phi) == ref_atom_names(phi)
            assert is_unimodal(phi) == ref_is_unimodal(phi)

    @pytest.mark.parametrize("modalities", [(MOD_A,), (MOD_A, MOD_B)])
    def test_separately_built_equal_formulas_hash_alike(self, modalities):
        for phi in _corpus(31, modalities):
            twin = rebuild(phi)
            assert twin is phi
            assert twin == phi
            assert hash(twin) == hash(phi)
            assert {phi: 1}[twin] == 1

    @pytest.mark.parametrize("modalities", [(MOD_A,), (MOD_A, MOD_B)])
    def test_equality_is_structural_and_agrees_with_sort_key(self, modalities):
        # Small budgets over one atom make equal pairs common.
        rng = random.Random(37)
        pool = [random_formula(rng, 4, ["p"], modalities) for _ in range(400)]
        equal_pairs = 0
        for f in pool:
            for g in pool[:60]:
                same = ref_equal(f, g)
                equal_pairs += same
                assert (f == g) == same
                assert (f == g) == (ref_sort_key(f) == ref_sort_key(g))
                assert (f != g) == (not same)
        assert equal_pairs > 400

    def test_flat_keys_order_as_the_nested_keys(self):
        # The flat key must sort every formula list as the nested one did,
        # or every enumeration, and so the output, would change order.
        formulas = all_formulas(6, ("p", "q"), (MOD_A, MOD_B))
        random.Random(53).shuffle(formulas)
        by_nested = sorted(formulas, key=ref_sort_key)
        assert sorted(formulas, key=sort_key) == by_nested
        for f, g in zip(by_nested, by_nested[1:]):
            assert sort_key(f) < sort_key(g)

    def test_flat_keys_order_closures_as_the_nested_keys(self):
        rng = random.Random(59)
        for _ in range(2000):
            seed = [
                random_formula(rng, 12, ["p", "q", "r"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            ]
            closure = list(sf(seed))
            rng.shuffle(closure)
            assert sorted(closure, key=sort_key) == sorted(closure, key=ref_sort_key)

    def test_formulas_are_never_equal_to_other_types(self):
        assert Atom("p") != "p"
        assert Atom("p") != (1, "p")
        assert FALSUM != 0

    def test_pickle_rebuilds_the_hash_in_the_loading_process(self):
        # A pickle written by a process with another hash seed rebuilds
        # through the constructors, so it loads as this process's node.
        phi = parse("[a](p & ~q) -> <b>r", BIMODAL)
        code = (
            "import pickle, sys; from densemodal import parse; "
            "sys.stdout.buffer.write(pickle.dumps(parse('[a](p & ~q) -> <b>r', 'bimodal')))"
        )
        env = dict(os.environ, PYTHONHASHSEED="1234")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        data = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        loaded = pickle.loads(data)
        assert loaded is phi
        assert loaded == phi
        assert hash(loaded) == hash(phi)
        assert loaded in {phi}


class TestInterning:
    def test_table_holds_no_dead_formulas(self):
        gc.collect()
        before = len(formula._table)
        built = [And(Atom(f"x{i}"), Box(MOD_B, Not(Atom(f"y{i}")))) for i in range(10_000)]
        assert len(formula._table) >= before + 10_000
        del built
        gc.collect()
        assert len(formula._table) == before

    def test_equal_formulas_are_one_node(self):
        text = "[a](p & ~q) -> <b>r"
        assert parse(text, BIMODAL) is parse(text, BIMODAL)
        assert Falsum() is FALSUM
        assert Box(MOD_A, Not(P)) is not Box(MOD_B, Not(P))

    def test_a_parse_leaves_no_cyclic_garbage(self):
        # Nodes, tokens and parser steps of a dropped parse are freed by
        # reference counting, whether it succeeds or fails.
        gc.collect()
        gc.disable()
        try:
            for text in ("<a>p & [b](q | ~r) -> true", "((p))", "p & (", "[]p", "p q", "P"):
                try:
                    parse(text, BIMODAL)
                except ParseError:
                    pass
                assert gc.collect() == 0, text
        finally:
            gc.enable()

    def test_copies_are_the_same_node(self):
        phi = parse(NESTINGS["box"](MAX_DEPTH))
        assert copy.copy(phi) is phi
        assert copy.deepcopy(phi) is phi


class TestDepthBound:
    @pytest.mark.parametrize("shape", sorted(NESTINGS))
    def test_max_depth_parses_and_one_more_is_rejected(self, shape):
        text = NESTINGS[shape](MAX_DEPTH)
        phi = parse(text)
        assert parse(render(phi)) == phi
        with pytest.raises(ParseError) as err:
            parse(NESTINGS[shape](MAX_DEPTH + 1))
        assert f"deeper than {MAX_DEPTH}" in err.value.message

    def test_depth_counts_nesting_not_length(self):
        # A balanced conjunction of 64 leaves: each of its six levels adds
        # one level for the parenthesis and one for the right operand.
        def balanced(leaves, leaf):
            if leaves == 1:
                return leaf
            half = balanced(leaves // 2, leaf)
            return f"({half}) & ({half})"

        text = balanced(64, "~" * (MAX_DEPTH - 12) + "p")
        assert size(parse(text)) == 64 * (MAX_DEPTH - 11) + 63
        with pytest.raises(ParseError):
            parse(balanced(64, "~" * (MAX_DEPTH - 11) + "p"))


# The three corpora the benchmark's xval workload samples: 6,976 formulas.
def _xval_corpus():
    return (
        all_formulas(7, ["p"], (MOD_A,))
        + all_formulas(6, ["p", "q"], (MOD_A,))
        + all_formulas(6, ["p"], (MOD_A, MOD_B))
    )


def _parsed(parser, text, mode):
    """The node parser gives for text, or its error's message and column."""
    try:
        return parser(text, mode)
    except ParseError as err:
        return err.message, err.position


def _assert_parsers_agree(texts):
    for text in texts:
        for mode in (UNIMODAL, BIMODAL):
            assert _parsed(parse, text, mode) == _parsed(rule_reference.parse, text, mode), (
                text,
                mode,
            )


class TestParserReference:
    """The precedence-climbing parser against the former descent parser."""

    def test_every_render_of_the_xval_corpora(self):
        corpus = _xval_corpus()
        assert len(corpus) == 6976
        texts = [render(f) for f in corpus]
        texts += [render(f, BIMODAL) for f in corpus if is_unimodal(f)]
        _assert_parsers_agree(texts)

    def test_texts_with_one_character_inserted_deleted_or_swapped(self):
        rng = random.Random(41)
        corpus = _xval_corpus()
        texts = []
        while len(texts) < 2000:
            text = render(rng.choice(corpus))
            i = rng.randrange(len(text))
            edit = rng.choice(("insert", "delete", "swap"))
            if edit == "insert":
                text = text[:i] + rng.choice("pqab ~&|-<>[]()?") + text[i:]
            elif edit == "delete":
                text = text[:i] + text[i + 1 :]
            elif i + 1 < len(text):
                text = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
            else:
                continue
            texts.append(text)
        _assert_parsers_agree(texts)

    @pytest.mark.parametrize("shape", sorted(NESTINGS))
    def test_every_nesting_shape_at_and_past_the_depth_bound(self, shape):
        _assert_parsers_agree([NESTINGS[shape](MAX_DEPTH), NESTINGS[shape](MAX_DEPTH + 1)])


def _tokenized(tokenizer, text):
    """The tokens of text, or its error's text, message and column."""
    try:
        return tokenizer(text)
    except ParseError as err:
        return str(err), err.message, err.position


class TestTokenizerReference:
    """The one-scan tokenizer against the former match-per-token loop."""

    def test_random_texts(self):
        rng = random.Random(211)
        rejected = 0
        for _ in range(20_000):
            text = random_text(rng)
            got = _tokenized(formula._tokenize, text)
            assert got == _tokenized(former_tokenize, text), text
            rejected += isinstance(got, tuple)
        # Both outcomes are common, so neither half is checked vacuously.
        assert 3_000 < rejected < 17_000

    def test_every_render_of_the_bimodal_corpus(self):
        corpus = all_formulas(6, ("p", "q"), (MOD_A, MOD_B))
        texts = [render(f, BIMODAL) for f in corpus]
        texts += [render(f, UNIMODAL) for f in corpus if is_unimodal(f)]
        assert len(texts) == 6744
        for text in texts:
            assert formula._tokenize(text) == former_tokenize(text), text

    def test_columns_of_unexpected_characters(self):
        for text, column in [("P", 0), ("p & Q", 4), ("  \t!", 3), ("p [c]", 2), ("p\u00a0&  1", 5), ("p  ", None)]:
            got = _tokenized(formula._tokenize, text)
            assert got == _tokenized(former_tokenize, text)
            if column is None:
                assert got[-1] == ("eof", "", len(text))
            else:
                assert got[2] == column


NODE_FIELDS = {
    Atom("p"): ("name",),
    FALSUM: (),
    Not(Atom("p")): ("child",),
    And(Atom("p"), Atom("q")): ("left", "right"),
    Box(MOD_B, Atom("p")): ("modality", "child"),
}


class TestNodeContract:
    @pytest.mark.parametrize("node", list(NODE_FIELDS), ids=lambda n: type(n).__name__)
    def test_fields_cannot_be_set_or_deleted(self, node):
        before = {name: getattr(node, name) for name in NODE_FIELDS[node]}
        for name in NODE_FIELDS[node] + ("sort_key", "degree", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, Atom("r"))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert {name: getattr(node, name) for name in NODE_FIELDS[node]} == before

    def test_repr_shows_the_kind_and_its_fields(self):
        assert repr(Atom("p")) == "Atom(name='p')"
        assert repr(FALSUM) == "Falsum()"
        assert repr(Not(P)) == "Not(child=Atom(name='p'))"
        assert repr(And(P, Not(Q))) == (
            "And(left=Atom(name='p'), right=Not(child=Atom(name='q')))"
        )
        assert repr(Box(MOD_B, P)) == "Box(modality='b', child=Atom(name='p'))"
        for node in NODE_FIELDS:
            assert "sort_key" not in repr(node) and "degree" not in repr(node)

    def test_unknown_modality_is_rejected_and_leaves_no_node(self):
        gc.collect()
        before = len(formula._table)
        with pytest.raises(ValueError, match="unknown modality 'c'"):
            Box("c", Atom("p"))
        gc.collect()
        assert len(formula._table) == before
