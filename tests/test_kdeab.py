import gc
import json
import random
import time
import tracemalloc

import pytest

import densemodal.windows as windows_mod
from densemodal import (
    Atom,
    Box,
    MOD_A,
    MOD_B,
    Not,
    SAT,
    UNSAT,
    all_formulas,
    box_inverse,
    is_weakly_dense,
    model_check,
    model_json_text,
    parse,
    sat_set,
    set_degree,
)
from densemodal.formula import MAX_DEPTH
from densemodal.kdeab import _Search, _modal_part
from densemodal.saturation import saturation_family
from densemodal.windows import initial_windows
from conftest import MODAL_CHAINS, anchor_windows, chained_formula, random_formula
from counter_reference import (
    CachedSearch,
    CounterSearch,
    cached_sat_set,
    counter_bound,
    lasso_window_chain,
    reference_sat_set,
    reference_window_chain,
)
import rule_reference
from search_reference import TupleFamilySearch, tuple_family_sat_set

P, Q = Atom("p"), Atom("q")


def bi(text):
    return parse(text, "bimodal")


def sat_ladder(n: int) -> str:
    return " & ".join(f"(p{i} | q{i})" for i in range(n))


def nested_ladder(n: int) -> str:
    """The SAT ladder of n rungs beside a b-diamond whose 6-rung ladder
    needs an unsatisfiable b-diamond: UNSAT, with 2**n saturations that
    share one modal part."""
    return f"{sat_ladder(n)} & <b>({sat_ladder(6)} & <b>false)"


# A saturated anchor: its own only saturation, so sat_set decides exactly it.
WORKED = frozenset({Box(MOD_A, Q), Not(Box(MOD_A, P))})
WORKED_BOXA = box_inverse(WORKED, MOD_A)


class TestSatSet:
    def test_weak_density_axiom_negation_unsat(self):
        assert sat_set({bi("~([a][b]p -> [a]p)")}).verdict == UNSAT

    def test_atom_sat(self):
        result = sat_set({bi("p")})
        assert result.verdict == SAT
        assert result.witness.worlds == (0,)
        assert model_check(result.witness, 0, P)

    def test_a_diamond_witness_shape(self):
        result = sat_set({bi("~[a]p")})
        assert result.verdict == SAT
        # root, then the two chain heads {~p} and {}; the loop closes on the
        # empty head with a b self-edge.
        assert json.loads(model_json_text(result.witness)) == {
            "worlds": [0, 1, 2],
            "ra": [[0, 1], [0, 2]],
            "rb": [[2, 1], [2, 2]],
            "val": {},
            "root": 0,
        }

    def test_b_diamond_witness_shape(self):
        result = sat_set({bi("~[b]p")})
        assert result.verdict == SAT
        assert json.loads(model_json_text(result.witness)) == {
            "worlds": [0, 1],
            "ra": [],
            "rb": [[0, 1]],
            "val": {},
            "root": 0,
        }

    def test_negated_axiom_has_a_unique_saturation(self):
        phi = bi("~([a][b]p -> [a]p)")
        fam = tuple(saturation_family(frozenset({phi})))
        assert len(fam) == 1
        members = fam[0]
        assert bi("[a][b]p") in members
        assert Not(bi("[a]p")) in members

    def test_empty_set_sat(self):
        assert sat_set(set()).verdict == SAT

    def test_box_obligations_flow_through_chain_parts(self):
        # [a][b]p forces p at every chain head via the b-links of the
        # dense-successor sequence.
        phi = bi("[a][b]p & ~[a]q")
        result = sat_set({phi})
        assert result.verdict == SAT
        m = result.witness
        heads = {t for (s, t) in m.ra if s == m.root}
        assert heads and heads <= m.valuation["p"]

    def test_nested_weak_density_consequence(self):
        # One box deeper, same midpoint argument: still valid.
        assert sat_set({bi("~([a][b][b]p -> [a][b]p)")}).verdict == UNSAT

    def test_multi_formula_sets(self):
        parts = {bi("[a][b]p"), bi("~[a]q"), bi("p")}
        result = sat_set(parts)
        assert result.verdict == SAT
        for f in parts:
            assert model_check(result.witness, result.witness.root, f)
        assert sat_set({bi("~([a][b]p -> [a]p)"), bi("q")}).verdict == UNSAT

    def test_witnesses_always_verify(self):
        rng = random.Random(109)
        for _ in range(120):
            phi = random_formula(rng, 6, ["p", "q"], (MOD_A, MOD_B))
            result = sat_set({phi})
            if result.verdict == SAT:
                m = result.witness
                assert is_weakly_dense(m)
                assert model_check(m, m.root, phi)

    def test_memo_toggle_same_verdicts(self):
        rng = random.Random(113)
        chained = 0
        for _ in range(200):
            phi = chained_formula(rng, 6, ["p"])
            memo = sat_set({phi}, memo=True)
            assert memo.verdict == sat_set({phi}, memo=False).verdict, phi
            chained += memo.stats["windows"] > 0
        assert chained >= 80

    def test_recursion_depth_bounded_by_degree(self):
        rng = random.Random(127)
        for _ in range(80):
            phi = random_formula(rng, 7, ["p", "q"], (MOD_A, MOD_B))
            result = sat_set({phi})
            assert result.stats["max_depth"] <= set_degree({phi})


class TestSatSaturation:
    """sat_set on saturated sets, each its own only saturation."""

    def test_worked_anchor_both_modes(self):
        # The lasso search and the paper's counter walk both accept it.
        assert tuple(saturation_family(WORKED)) == (WORKED,)
        assert sat_set(WORKED).verdict == SAT
        assert CounterSearch().sat_members(WORKED, 0) is not None

    def test_empty_saturation_sat(self):
        assert tuple(saturation_family(frozenset())) == (frozenset(),)
        assert sat_set(frozenset()).verdict == SAT

    def test_counter_bound_of_worked_anchor(self):
        # sf(w) has six elements and the degree is one: 2**(6*2).
        assert counter_bound(WORKED) == 4096

    def test_counter_bound_matches_the_former_formula(self):
        # counter_bound used to count csf(sf(anchor)) with the former
        # closure walkers; sf alone is closed under csf, so it counts the same.
        checked = 0
        for phi in all_formulas(6, ["p"], modalities=(MOD_A, MOD_B)):
            for s in saturation_family(frozenset({phi})):
                m = len(rule_reference.csf(rule_reference.sf(s)))
                assert counter_bound(s) == 2 ** (m * (set_degree(s) + 1)), s
                checked += 1
        assert checked > 2000


def chain_graph(monkeypatch, edges):
    """Window w0 over WORKED, whose continuations follow the given edges.

    Window i has an empty, satisfiable head and a second part naming i.
    """
    def win(i):
        return (frozenset(), frozenset({Atom(f"w{i}")}))

    succ = {}
    for a, b in edges:
        succ.setdefault(win(a), []).append(win(b))
    monkeypatch.setattr(windows_mod, "continuations", lambda boxa, parts, *_: iter(succ.get(parts, ())))
    return win(0)


class TestWindowChain:
    def test_worked_chain_accepts_in_both_modes(self):
        # The lasso search and the paper's counter walk both accept it.
        start = next(anchor_windows(WORKED, Not(P)))
        assert lasso_window_chain(WORKED_BOXA, start)
        assert reference_window_chain(WORKED_BOXA, start, None)

    def test_matches_reference_counter_walk(self):
        # Every initial window of every anchor among the saturations of the
        # bimodal corpus of criterion 3: the lasso search against the
        # counter walk, and a lasso meets budgets 0-3 as well.  The walk
        # takes each chain's budget, nested ones included, from the windows
        # reachable from its start, so anchors whose counter_bound is far
        # too long to walk are compared too: 160 of the 226 windows.
        anchors = dict.fromkeys(
            w
            for phi in all_formulas(6, ["p"], modalities=(MOD_A, MOD_B))
            for w in saturation_family(frozenset({phi}))
        )
        compared = large = 0
        for members in anchors:
            boxa, _, diamonds_a, _, degree = _modal_part(members)
            for body in diamonds_a:
                for start in initial_windows(boxa, degree, Not(body), {}):
                    got = lasso_window_chain(boxa, start)
                    assert got == reference_window_chain(boxa, start, None), members
                    for budget in (0, 1, 2, 3):
                        assert reference_window_chain(boxa, start, budget) or not got, (members, budget)
                    compared += 1
                    large += counter_bound(members) > 2 ** 16
        assert (len(anchors), compared, large) == (2098, 226, 160)

    def test_budget_reads_the_longest_chain(self, monkeypatch):
        # No lasso: w0 -> w1 -> w2 and w0 -> w3, so the longest chain has
        # three windows.  Four windows are reachable, so the default budget
        # is five, where counter_bound(WORKED) is 4096.
        start = chain_graph(monkeypatch, [(0, 1), (1, 2), (0, 3)])
        assert CounterSearch().chain_budget(WORKED_BOXA, start) == 5
        for budget, accepts in [(0, True), (1, True), (2, True), (3, True), (4, False), (None, False)]:
            assert reference_window_chain(WORKED_BOXA, start, budget) is accepts
        assert not lasso_window_chain(WORKED_BOXA, start)

    def test_a_lasso_meets_every_budget(self, monkeypatch):
        start = chain_graph(monkeypatch, [(0, 1), (1, 2), (2, 1)])
        assert lasso_window_chain(WORKED_BOXA, start)
        for budget in (0, 1, 2, 3, 4, None):
            assert reference_window_chain(WORKED_BOXA, start, budget)

    def test_a_lasso_draws_one_continuation_from_a_longer_stream(self, monkeypatch):
        # The initial window of <a>p & [a](p | q) has two continuations, and
        # the first repeats it, closing the lasso.  Each window's
        # continuations are read as a stream, so the search draws only that
        # one; a search that materializes the stream draws both.
        real = windows_mod.continuations
        streams = []

        def counting(boxa, window, *tables):
            drawn = [boxa, window, 0]
            streams.append(drawn)
            for cont in real(boxa, window, *tables):
                drawn[2] += 1
                yield cont

        monkeypatch.setattr(windows_mod, "continuations", counting)
        result = sat_set({bi("<a>p & [a](p | q)")})
        assert result.verdict == SAT and result.stats["windows"] == 2
        [(boxa, window, drawn)] = streams
        assert len(list(real(boxa, window, {}))) == 2
        assert drawn == 1

    def test_unsat_head_fails(self):
        # Anchor for ~(…axiom…): the only window demands p and ~p together.
        phi = bi("~([a][b]p -> [a]p)")
        w = next(iter(saturation_family(frozenset({phi}))))
        starts = list(anchor_windows(w, Not(bi("p"))))
        assert starts == []


class TestExtractModel:
    def test_shared_heads_collapse_to_one_world(self):
        assert tuple(saturation_family(WORKED)) == (WORKED,)
        result = sat_set(WORKED)
        m = result.witness
        assert sorted(m.worlds) == [0, 1, 2]
        assert (0, 1) in m.ra and (0, 2) in m.ra
        # the {q} head loops on itself
        assert (2, 2) in m.rb and (2, 1) in m.rb
        assert m.valuation == {"q": {1, 2}}
        assert is_weakly_dense(m)
        for f in WORKED:
            assert model_check(m, 0, f)

    def test_single_world_for_pure_literals(self):
        result = sat_set({bi("p & ~q")})
        assert result.witness.worlds == (0,)
        assert result.witness.valuation == {"p": {0}}


class TestBoundAgreement:
    def test_modes_agree_on_random_formulas(self):
        # The lasso search against the paper's counter walk, on every draw,
        # with a floor on how many entered a window chain.
        rng = random.Random(131)
        chained = 0
        for _ in range(400):
            phi = chained_formula(rng, 4, ["p"])
            lasso = sat_set({phi})
            reference = reference_sat_set({phi})
            assert lasso.verdict == reference.verdict, phi
            assert lasso.witness == reference.witness, phi
            chained += lasso.stats["windows"] > 0
        assert chained >= 200


class TestStreamedContinuations:
    """sat_set, which reads each window's continuations as a stream, against
    the former search, which cached them whole per window (cached_sat_set in
    tests/counter_reference.py): same verdict, witness and stats."""

    @staticmethod
    def agree(phi) -> int:
        """Compare both searches on phi; return the windows it entered."""
        got = sat_set({phi})
        want = cached_sat_set({phi})
        assert got.verdict == want.verdict, phi
        assert got.witness == want.witness, phi
        assert got.stats == want.stats, phi
        return got.stats["windows"]

    def test_acceptance_corpus(self):
        for phi in all_formulas(6, ["p"], modalities=(MOD_A, MOD_B)):
            self.agree(phi)

    def test_disjunction_ladders(self):
        for n in range(1, 8):
            for text in (sat_ladder(n), sat_ladder(n) + " & <b>false"):
                self.agree(bi(text))

    @pytest.mark.parametrize("chain", sorted(MODAL_CHAINS))
    def test_chains_at_max_depth(self, chain):
        self.agree(bi(MODAL_CHAINS[chain](MAX_DEPTH)))

    def test_random_formulas(self):
        # About half of these formulas enter a window chain; the floor
        # keeps the test about chains.
        rng = random.Random(149)
        chained = 0
        for _ in range(2000):
            phi = chained_formula(rng, rng.choice((4, 6, 8)), ["p", "q"])
            chained += self.agree(phi) > 0
        assert chained >= 900


class TestStreamedFamilies:
    """sat_set, which draws saturation families as streams and memoizes
    modal parts, against the former search, which built families whole and
    memoized member sets only (tuple_family_sat_set in
    tests/search_reference.py): same verdict and byte-identical witness,
    with the memo on and off.  Only the counters may differ."""

    @staticmethod
    def agree(phi, memo: bool) -> int:
        """Compare both searches on phi; return the windows it entered."""
        got = sat_set({phi}, memo=memo)
        want = tuple_family_sat_set({phi}, memo=memo)
        assert got.verdict == want.verdict, phi
        if want.witness is None:
            assert got.witness is None, phi
        else:
            assert model_json_text(got.witness) == model_json_text(want.witness), phi
        return got.stats["windows"]

    @pytest.mark.parametrize("memo", [True, False])
    def test_every_formula_of_seven_nodes(self, memo):
        # 10,878 formulas, the acceptance corpus of at most six nodes among them.
        for phi in all_formulas(7, ["p"], modalities=(MOD_A, MOD_B)):
            self.agree(phi, memo)

    @pytest.mark.parametrize("memo", [True, False])
    def test_ladders(self, memo):
        for n in range(1, 8):
            for text in (sat_ladder(n), sat_ladder(n) + " & <b>false", nested_ladder(n)):
                self.agree(bi(text), memo)

    @pytest.mark.parametrize("memo", [True, False])
    def test_variants_of_one_diamond(self, memo):
        # Two b-children with one diamond and different boxes of its
        # modality: the second must not read the first's successors, which
        # break its box, or which would hide that it is unsatisfiable.
        for m in ("a", "b"):
            for body in ("~q", "~p"):
                self.agree(bi(f"<b>(<{m}>p & [{m}]q) & <b>(<{m}>p & [{m}]{body})"), memo)

    @pytest.mark.parametrize("memo", [True, False])
    def test_random_formulas(self, memo):
        # About half of these formulas enter a window chain; the floor
        # keeps the test about chains.
        rng = random.Random(151)
        chained = 0
        for _ in range(2000):
            phi = chained_formula(rng, rng.choice((4, 6, 8)), ["p", "q"])
            chained += self.agree(phi, memo) > 0
        assert chained >= 900


class TestOneStackPerDiamond:
    """lasso_chain keeps a diamond's stream of initial windows at the bottom
    of its one stack.  The former search (CachedSearch.lasso_chain in
    tests/counter_reference.py) searched each start's chains in a loop of
    its own.  In these chained_formula draws over p and q, a diamond's first
    initial window has no accepted chain, and a later one is accepted: same
    verdict, byte-identical witness and same stats.  They are every distinct
    such draw of a scan over seeds 0-13,333 at budgets 12, 13 and 14, plus
    seed 16079 at budget 12.  In five of them the first start's head is
    satisfiable, so its chains are searched and fail; in the rest the head
    itself is unsatisfiable."""

    # (budget, rng seed): (windows entered, initial windows the diamond
    # draws, whether the first start's head is satisfiable)
    DRAWS = {
        (12, 806): (4, 2, False),
        (12, 1114): (7, 2, False),
        (12, 5047): (4, 2, False),
        (12, 5905): (6, 2, True),
        (12, 7460): (12, 5, True),
        (12, 12754): (4, 2, False),
        (12, 16079): (6, 2, True),
        (13, 1114): (8, 3, False),
        (13, 4873): (4, 2, False),
        (13, 7460): (9, 2, True),
        (13, 8412): (5, 2, False),
        (14, 7460): (9, 2, True),
        (14, 9209): (4, 2, False),
        (14, 12293): (4, 2, False),
        (14, 12452): (4, 2, False),
        (14, 12754): (4, 2, False),
    }

    @pytest.mark.parametrize("budget, seed", sorted(DRAWS))
    def test_a_later_start_is_accepted(self, monkeypatch, budget, seed):
        windows, drawn, head_sat = self.DRAWS[budget, seed]
        phi = chained_formula(random.Random(seed), budget, ["p", "q"])
        real = CachedSearch.lasso_chain
        calls = []

        def recording(search, boxa, starts, depth):
            seen = []

            def stream():
                for start in starts:
                    seen.append(start)
                    yield start

            chain = real(search, boxa, stream(), depth)
            calls.append((seen, chain))
            return chain

        monkeypatch.setattr(CachedSearch, "lasso_chain", recording)
        want = cached_sat_set({phi})
        got = sat_set({phi})
        [(starts, chain)] = [call for call in calls if len(call[0]) > 1]
        assert chain is not None and len(starts) == drawn
        assert (_Search().sat_members(starts[0][0], 1) is not None) == head_sat
        assert got.verdict == want.verdict == SAT
        assert model_json_text(got.witness) == model_json_text(want.witness)
        assert got.stats == want.stats
        assert got.stats["windows"] == windows


class TestReferencesKeepTheirLoops:
    """Each reference replaces a loop of the solver's search with its former
    one, so that no differential test compares the search with itself: the
    solver's loop must not run under a reference, and the override must."""

    FORMULA = "<a>(p & q) & [a]<b>r"
    CASES = {
        "cached": (cached_sat_set, "lasso_chain", [(CachedSearch, "lasso_chain")]),
        "counter": (
            reference_sat_set,
            "lasso_chain",
            [(CachedSearch, "lasso_chain"), (CounterSearch, "start_chain")],
        ),
        "tuple_family": (tuple_family_sat_set, "first", [(TupleFamilySearch, "first")]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_override_runs_instead(self, monkeypatch, case):
        solve, replaced, overrides = self.CASES[case]

        def solver_loop(*args):
            raise AssertionError(f"the reference ran _Search.{replaced}")

        monkeypatch.setattr(_Search, replaced, solver_loop)
        ran = set()
        for cls, name in overrides:
            own = cls.__dict__[name]

            def counted(search, *args, own=own, name=name):
                ran.add(name)
                return own(search, *args)

            monkeypatch.setattr(cls, name, counted)
        result = solve({bi(self.FORMULA)})
        assert result.verdict == SAT and result.stats["windows"] > 0
        assert ran == {name for _, name in overrides}


class TestCraftedWork:
    """Crafted inputs where drawing families as streams, and solving each
    modal part once, remove exponential work; each pins its counters."""

    def test_sat_ladder_tries_one_saturation(self):
        # 2**40 saturations; the first is satisfiable.
        phi = bi(sat_ladder(40))
        start = time.process_time()
        result = sat_set({phi})
        elapsed = time.process_time() - start
        assert result.verdict == SAT
        assert result.stats == {"max_depth": 0, "saturations": 1, "windows": 0}
        assert elapsed < 0.5, f"{elapsed:.2f} s of CPU"

    def test_sat_ladder_holds_one_branch(self):
        # Building the 14-rung family whole peaked at 197 MB.
        phi = bi(sat_ladder(14))
        gc.collect()
        tracemalloc.start()
        try:
            result = sat_set({phi})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verdict == SAT
        assert peak < 1024 * 1024, f"{peak} bytes at peak"

    def test_nested_ladder_solves_its_modal_part_once(self):
        # All 4,096 top-level saturations are tried; the first solves the
        # b-diamond by trying its 64 child saturations, and the other
        # 4,095 read that verdict from the modal-part memo.
        phi = bi(nested_ladder(12))
        start = time.process_time()
        result = sat_set({phi})
        elapsed = time.process_time() - start
        assert result.verdict == UNSAT
        assert result.stats == {"max_depth": 1, "saturations": 4160, "windows": 0}
        assert elapsed < 2.0, f"{elapsed:.2f} s of CPU"

    def test_no_memo_solves_every_variant(self):
        # Without the memo each of the 64 top-level saturations tries the
        # b-diamond's 64 child saturations again.
        phi = bi(nested_ladder(6))
        assert sat_set({phi}).stats == {"max_depth": 1, "saturations": 128, "windows": 0}
        assert sat_set({phi}, memo=False).stats == {
            "max_depth": 1, "saturations": 4160, "windows": 0,
        }

    def test_a_modal_part_of_another_degree_is_solved_again(self):
        # The two b-children share their boxes and diamonds, but the first
        # holds r | [b][b][b]q, of degree 3, so its windows are longer: each
        # child enters its own three windows.
        phi = bi("<b>(<a>p & r & (r | [b][b][b]q)) & <b>(<a>p & r)")
        assert sat_set({phi}).stats == {"max_depth": 2, "saturations": 3, "windows": 6}


class TestStreamedWindows:
    """The windows module draws each part's family as a stream, so a chain
    search that accepts early never enumerates the rest of a part's family,
    and one that fails still draws every member."""

    def test_ladder_inside_a_diamond_draws_one_part(self):
        # The first part of the first window has 2**n saturations, and the
        # first is accepted.  Building that family whole peaked at 51.8 MB
        # at n = 12; the smaller rung runs first, so such a search fails
        # there before it tries 2**20.
        for n in (12, 20):
            phi = bi(f"<a>({sat_ladder(n)})")
            gc.collect()
            tracemalloc.start()
            try:
                result = sat_set({phi})
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.verdict == SAT
            assert result.stats == {"max_depth": 1, "saturations": 1, "windows": 3}
            assert peak < 2 * 1024 * 1024, f"{peak} bytes at peak at n = {n}"

    def test_a_failing_diamond_draws_every_part(self):
        # Every head needs <b>false, so each of the 2**10 first parts is
        # drawn and refused.
        result = sat_set({bi(f"<a>({sat_ladder(10)} & <b>false)")})
        assert result.verdict == UNSAT
        assert result.stats == {"max_depth": 1, "saturations": 1, "windows": 1024}

    def test_deepest_diamond_chain_holds_one_stream_per_open_part(self):
        # 176 nested chain searches stay open, with windows of up to 177
        # parts, and each open part holds its suspended stream.  The peak
        # read 27.9 MB, against 18.8 MB when every family was a tuple.
        phi = bi(MODAL_CHAINS["<a>"](MAX_DEPTH))
        gc.collect()
        tracemalloc.start()
        try:
            result = sat_set({phi})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.verdict == SAT
        assert peak < 30 * 1024 * 1024, f"{peak} bytes at peak"


class TestMemory:
    # Every cache of the solver lives and dies with one solve, so a long
    # run of solves keeps nothing (0 bytes measured).  Process-lifetime
    # caches keyed by formula kept about 270 KB over these 300 solves.
    RETAINED_BOUND = 32 * 1024

    def test_solves_retain_no_memory(self):
        rng = random.Random(139)
        formulas = []
        while len(formulas) < 320:
            phi = random_formula(rng, 7, ["p", "q"], (MOD_A, MOD_B))
            if phi not in formulas:
                formulas.append(phi)
        for phi in formulas[:20]:
            sat_set({phi})
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for phi in formulas[20:]:
                sat_set({phi})
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < self.RETAINED_BOUND, f"{after - before} bytes retained"
