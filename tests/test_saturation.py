import itertools
import random

from densemodal import (
    SAT,
    And,
    Atom,
    Box,
    FALSUM,
    MOD_A,
    MOD_B,
    Not,
    all_formulas,
    csf,
    parse,
    sat_set,
    set_degree,
    set_size,
    sort_key,
)
from densemodal import kdeab, saturation, windows
from densemodal.saturation import (
    is_saturation_of,
    saturation_family,
    saturation_test,
    saturations,
)
from conftest import random_formula
import rule_reference as reference

P, Q = Atom("p"), Atom("q")


def members_of(seed):
    return set(saturations(seed))


# -- independent oracle ------------------------------------------------------
# Brute force over all subsets between the seed and its closure, filtered by
# the branch invariants and by an order-permuting derivation search.  Written
# as a different algorithm on purpose.


def _invariants_ok(s):
    if FALSUM in s:
        return False
    for f in s:
        if isinstance(f, Not):
            if f.child in s:
                return False
            c = f.child
            if isinstance(c, Not) and c.child not in s:
                return False
            if isinstance(c, And):
                if Not(c.left) not in s and Not(c.right) not in s:
                    return False
        elif isinstance(f, And):
            if f.left not in s or f.right not in s:
                return False
    return True


def _justified(current, x):
    for f in current:
        if isinstance(f, And) and x in (f.left, f.right):
            return True
        if isinstance(f, Not):
            c = f.child
            if isinstance(c, Not) and x == c.child:
                return True
            if isinstance(c, And) and x in (Not(c.left), Not(c.right)):
                if Not(c.left) not in current and Not(c.right) not in current:
                    return True
    return False


def _derivable(seed, target):
    seen = set()

    def step(current):
        if current == target:
            return True
        if current in seen:
            return False
        seen.add(current)
        return any(
            step(current | {x})
            for x in sorted(target - current, key=sort_key)
            if _justified(current, x)
        )

    return step(frozenset(seed))


def brute_force_family(seed):
    seed = frozenset(seed)
    extras = sorted(csf(seed) - seed, key=sort_key)
    found = set()
    for k in range(len(extras) + 1):
        for picked in itertools.combinations(extras, k):
            cand = seed | frozenset(picked)
            if _invariants_ok(cand) and _derivable(seed, cand):
                found.add(cand)
    return found


def membership_cases():
    """Random seeds, each with every set between it and its closure."""
    rng = random.Random(31)
    for _ in range(150):
        seed = frozenset(
            random_formula(rng, 5, ["p", "q"], (MOD_A, MOD_B))
            for _ in range(rng.randint(0, 3))
        )
        extras = sorted(csf(seed) - seed, key=sort_key)
        if len(extras) > 10:
            continue
        yield seed, [
            seed | frozenset(picked)
            for k in range(len(extras) + 1)
            for picked in itertools.combinations(extras, k)
        ]


# -- frozen examples ---------------------------------------------------------


class TestExamples:
    def test_clashing_seed_is_empty(self):
        assert members_of({P, Not(P)}) == set()

    def test_falsum_seed_is_empty(self):
        assert members_of({FALSUM}) == set()

    def test_box_seed_is_itself(self):
        seed = frozenset({Box(MOD_A, Q), Not(Box(MOD_A, P))})
        assert members_of(seed) == {seed}

    def test_negated_conjunction_has_two_branches(self):
        seed = frozenset({Not(And(P, Q))})
        assert members_of(seed) == {
            seed | {Not(P)},
            seed | {Not(Q)},
        }

    def test_empty_seed(self):
        assert members_of(frozenset()) == {frozenset()}

    def test_double_negation(self):
        seed = frozenset({Not(Not(P))})
        assert members_of(seed) == {seed | {P}}

    def test_repeated_disjunct(self):
        seed = frozenset({Not(And(P, P))})
        assert members_of(seed) == {seed | {Not(P)}}

    def test_interleavings_are_covered(self):
        # Two negated conjunctions sharing a disjunct: the branch where the
        # second rule fires before the first exists only for some orders.
        seed = frozenset({Not(And(P, Q)), Not(And(Q, Atom("r")))})
        got = members_of(seed)
        assert seed | {Not(Q)} in got
        assert seed | {Not(Q), Not(Atom("r"))} in got
        assert got == brute_force_family(seed)


class TestMembership:
    def test_padded_branch_rejected(self):
        assert not is_saturation_of({Not(And(P, Q)), P, Q}, {Not(And(P, Q))})

    def test_atom_seed(self):
        assert is_saturation_of({P}, {P})

    def test_branch_accepted(self):
        assert is_saturation_of({Not(And(P, Q)), Not(P)}, {Not(And(P, Q))})

    def test_underived_material_rejected(self):
        # q sits inside csf of the seed and clashes with nothing, but no rule
        # run ever introduces it.
        assert not is_saturation_of(
            {Not(And(P, Q)), Not(P), Q}, {Not(And(P, Q))}
        )

    def test_agrees_with_enumeration(self):
        for seed, candidates in membership_cases():
            family = members_of(seed)
            for cand in candidates:
                assert is_saturation_of(cand, seed) == (cand in family)

    def test_matches_reference(self):
        for seed, candidates in membership_cases():
            for cand in candidates:
                assert is_saturation_of(cand, seed) == reference.is_saturation_of(cand, seed)
        # Random seeds with their saturations, every set one member away and
        # the seed itself.  One saturation_test per seed serves every
        # candidate and must answer as a fresh membership test does.
        rng = random.Random(59)
        for _ in range(2000):
            seed = frozenset(
                random_formula(rng, 6, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            )
            test = saturation_test(seed)
            universe = csf(seed)
            for members in members_of(seed):
                near = [members | {x} for x in universe - members]
                near += [members - {x} for x in members - seed]
                for cand in [members, *near, seed]:
                    expected = reference.is_saturation_of(cand, seed)
                    assert is_saturation_of(cand, seed) == expected
                    assert test(cand) == expected


class TestReference:
    """The table-driven search, which takes an isolated rule's moves alone,
    against the per-visit rules and the search over every move it replaced."""

    @staticmethod
    def _check(seed, by_family=False):
        """Family and order, then membership of every saturation and of
        every set one member away from one.  With by_family, membership
        is checked against the reference's family instead of its
        membership test, whose search costs seconds per ladder seed."""
        family = tuple(saturation_family(seed))
        assert family == tuple(reference.saturation_family(seed)), seed
        universe = csf(seed)
        for members in family:
            near = [members | {x} for x in universe - members]
            near += [members - {x} for x in members - seed]
            for cand in [members, *near]:
                if by_family:
                    expected = cand in family
                else:
                    expected = reference.is_saturation_of(cand, seed)
                assert is_saturation_of(cand, seed) == expected

    def test_random_seeds(self):
        rng = random.Random(61)
        for _ in range(2000):
            self._check(
                frozenset(
                    random_formula(rng, 6, ["p", "q", "r"], (MOD_A, MOD_B))
                    for _ in range(rng.randint(1, 3))
                )
            )

    def test_every_small_formula(self):
        for phi in all_formulas(6, ["p"], (MOD_A, MOD_B)):
            self._check(frozenset({phi}))

    def test_disjunction_ladders(self):
        for n in range(1, 6):
            ladder = " & ".join(f"(p{i} | q{i})" for i in range(n))
            for text in (ladder, ladder + " & <b>false"):
                self._check(frozenset({parse(text, "bimodal")}), by_family=True)

    def test_negated_disjunction_chains(self):
        for n in range(1, 11):
            chain = " | ".join(f"p{i}" for i in range(n))
            self._check(frozenset({parse(f"~({chain})", "bimodal")}))

    def test_random_seeds_of_10_to_30_nodes(self):
        rng = random.Random(67)
        checked = 0
        while checked < 500:
            budget = rng.randint(10, 30)
            seed = frozenset(
                random_formula(rng, budget, ["p", "q", "r"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            )
            if 10 <= set_size(seed) <= 30:
                self._check(seed)
                checked += 1

    def test_ladder_builds_no_formula_per_visit(self, monkeypatch):
        # Building fresh Not partners at every visited set took 99,273 nodes
        # here; the rule table builds none, so only csf's own are left.
        ladder = " & ".join(f"(p{i} | q{i})" for i in range(5))
        seed = frozenset({parse(ladder, "bimodal")})
        bound = 2 * len(csf(seed))
        assert bound == 88
        built = 0
        new = Not.__new__

        def counting(cls, child):
            nonlocal built
            built += 1
            return new(cls, child)

        monkeypatch.setattr(Not, "__new__", counting)
        family = tuple(saturations(seed))
        monkeypatch.undo()
        assert len(family) == 32
        assert built <= bound, f"{built} Not nodes built"


def _ladder(n):
    return " & ".join(f"(p{i} | q{i})" for i in range(n))


class TestIsolationReference:
    """`_table` without the clash and falsum conditions on isolated rules,
    against `rule_reference.table`, which keeps them.  Both tables must
    hold the same rules and clashes, the new isolated map must contain
    the reference's, and the one search must yield the same family in the
    same order from either table."""

    @staticmethod
    def _check(seed):
        closure = csf(seed)
        table = saturation._table(seed, closure)
        expected = reference.table(seed, closure)
        assert table[:2] == expected[:2], seed
        assert expected[2].items() <= table[2].items(), seed
        family = list(saturation._branches(seed, table))
        assert family == list(saturation._branches(seed, expected)), seed
        return len(table[2]) > len(expected[2])

    def test_acceptance_corpora(self, monkeypatch):
        # Every seed whose table the solves of the kdeab corpus (criteria
        # 3, 8, 9) and of the kde corpus's formulas (criteria 2, 4, 5)
        # build.
        seeds = set()
        build = saturation._table

        def recording(seed, closure):
            seeds.add(seed)
            return build(seed, closure)

        monkeypatch.setattr(saturation, "_table", recording)
        for phi in all_formulas(6, ["p"], (MOD_A, MOD_B)) + all_formulas(7, ["p"]):
            sat_set({phi})
        monkeypatch.undo()
        assert len(seeds) > 4000
        gained = sum(self._check(seed) for seed in seeds)
        assert gained > 0

    def test_disjunction_ladders(self):
        for n in range(1, 8):
            for text in (_ladder(n), _ladder(n) + " & <b>false"):
                self._check(frozenset({parse(text, "bimodal")}))

    def test_random_seeds(self):
        rng = random.Random(71)
        gained = 0
        for _ in range(2000):
            gained += self._check(
                frozenset(
                    random_formula(rng, rng.randint(4, 20), ["p", "q", "r"], (MOD_A, MOD_B))
                    for _ in range(rng.randint(1, 3))
                )
            )
        assert gained > 100, gained


class TestWork:
    """Visited sets, counted as calls of `_pending`, one per set.

    Searching every interleaving of independent rules visits exponentially
    many partial branches; taking an isolated rule's moves alone keeps the
    count near the size of the closure times the family.
    """

    @staticmethod
    def _visits(monkeypatch, run):
        count = 0
        pending = saturation._pending

        def counting(*args):
            nonlocal count
            count += 1
            return pending(*args)

        monkeypatch.setattr(saturation, "_pending", counting)
        result = run()
        return count, result

    def test_valid_mode_chain_visits_linearly_many_sets(self, monkeypatch):
        # Valid mode solves the negation; every interleaving of its
        # conjunctions is about 2**15 sets.
        chain = " | ".join(f"p{i}" for i in range(14))
        seed = frozenset({Not(parse(chain, "bimodal"))})
        visits, result = self._visits(monkeypatch, lambda: sat_set(seed))
        assert result.verdict == SAT
        assert result.stats["saturations"] == 1
        assert visits <= 2 * len(csf(seed)), visits

    def test_one_table_per_seed_per_solve(self, monkeypatch):
        # Every family and membership test of one solve reads its seed's
        # table from the solve's dict: each distinct seed's table is built
        # once, though the solve asks for the tables many more times.  The
        # search asks through its saturation streams, the windows module
        # through its families and membership tests.
        built = []
        build = saturation._table

        def recording(seed, closure):
            built.append(seed)
            return build(seed, closure)

        requests = 0

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                nonlocal requests
                requests += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        monkeypatch.setattr(saturation, "_table", recording)
        counting(kdeab, "saturations")
        counting(windows, "saturation_family")
        counting(windows, "saturation_test")
        result = sat_set({parse("<a>(p & q) & [a]<b>r", "bimodal")})
        assert result.stats == {"max_depth": 2, "saturations": 2, "windows": 3}
        assert len(built) == len(set(built)) == 4
        assert requests == 15

    def test_isolation_a_clash_used_to_block(self, monkeypatch):
        # The first branch of each ~pi | si, ~~pi, adds ~pi, which clashes
        # with the conclusion pi of pi & qi.  The clash conditions kept
        # both conclusions from isolation, and the search walked the
        # interleavings of the moves they spare: 13,201 sets.
        text = " & ".join(f"(p{i} & q{i}) & (~p{i} | s{i})" for i in range(3))
        seed = frozenset({parse(text, "bimodal")})
        closure = csf(seed)
        old = reference.table(seed, closure)
        visits_before, family_before = self._visits(
            monkeypatch, lambda: list(saturation._branches(seed, old))
        )
        monkeypatch.undo()
        visits, family = self._visits(
            monkeypatch, lambda: list(saturations(seed))
        )
        assert family == family_before and len(family) == 1
        assert visits_before == 13201
        assert visits <= 2 * len(closure) < visits_before, visits

    def test_family_view_reads_no_further_than_asked(self, monkeypatch):
        # Iterating the view draws one member at a time; len reads the
        # whole family once, and later reads reuse what it kept.
        seed = frozenset({parse(_ladder(6), "bimodal")})
        view = saturation_family(seed)
        first, _ = self._visits(monkeypatch, lambda: next(iter(view)))
        monkeypatch.undo()
        whole, size = self._visits(monkeypatch, lambda: len(view))
        monkeypatch.undo()
        again, members = self._visits(monkeypatch, lambda: tuple(view))
        assert size == 64 and members == tuple(saturations(seed))
        assert (first, whole, again) == (23, 346, 0)

    def test_six_clause_ladder_visits_few_sets(self, monkeypatch):
        # 64 saturations; every interleaving is 48,210 sets.
        ladder = " & ".join(f"(p{i} | q{i})" for i in range(6))
        seed = frozenset({parse(ladder, "bimodal")})
        visits, family = self._visits(monkeypatch, lambda: tuple(saturations(seed)))
        assert len(family) == 64
        assert visits <= 400, visits


class TestProperties:
    def test_matches_brute_force(self):
        rng = random.Random(37)
        for _ in range(200):
            seed = frozenset(
                random_formula(rng, 5, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(0, 3))
            )
            if len(csf(seed) - seed) > 10:
                continue
            assert members_of(seed) == brute_force_family(seed)

    def test_idempotence(self):
        rng = random.Random(41)
        for _ in range(150):
            seed = frozenset(
                random_formula(rng, 5, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            )
            for s in saturations(seed):
                assert list(saturations(s)) == [s]

    def test_degree_and_size_bounds(self):
        rng = random.Random(43)
        for _ in range(150):
            seed = frozenset(
                random_formula(rng, 5, ["p", "q"], (MOD_A, MOD_B))
                for _ in range(rng.randint(1, 3))
            )
            bound = set_size(csf(seed))
            for s in saturations(seed):
                assert set_degree(s) == set_degree(seed)
                assert set_size(s) <= bound
                assert seed <= s <= csf(seed)

    def test_each_yielded_once(self):
        rng = random.Random(47)
        for _ in range(100):
            seed = frozenset(
                random_formula(rng, 5, ["p", "q"]) for _ in range(rng.randint(0, 3))
            )
            got = list(saturations(seed))
            assert len(got) == len(set(got))

    def test_empty_iff_classically_inconsistent(self):
        # A branch assigns consistent truth values when boxes are read as
        # opaque literals, so emptiness must match propositional
        # unsatisfiability over that reading.
        rng = random.Random(53)
        for _ in range(120):
            seed = frozenset(
                random_formula(rng, 5, ["p", "q"]) for _ in range(rng.randint(1, 3))
            )
            atoms = sorted(
                {f for s in seed for f in _opaque_atoms(s)}, key=sort_key
            )
            satisfiable = any(
                all(_opaque_eval(f, dict(zip(atoms, bits))) for f in seed)
                for bits in itertools.product([True, False], repeat=len(atoms))
            )
            assert bool(members_of(seed)) == satisfiable


class TestAlgebra:
    def test_union_composition_fails_on_blocked_disjuncts(self):
        # Documented limit of the branch algebra: a branch of v unioned into
        # a seed need not be re-derivable once the seed fulfils the
        # disjunction that justified it.  Together with the absorption
        # property below, no reading of branch generation can have both.
        u = frozenset({Not(P)})
        v = frozenset({Not(And(P, Q))})
        w1 = frozenset({Not(And(P, Q)), Not(Q)})
        assert is_saturation_of(w1, v)
        w = u | w1
        assert is_saturation_of(w, u | w1)  # w is its own finished branch
        assert not is_saturation_of(w, u | v)  # ~q underivable next to ~p
        # Absorption's side: u | v is already saturated, so it is its only
        # saturation and w cannot be one.
        assert list(saturations(u | v)) == [u | v]
        # What composition does guarantee, as criterion 7 checks it: w is
        # closed and contains a branch of u | v.
        assert u | v <= w <= csf(u | v)
        assert is_saturation_of(w, w)
        assert any(s <= w for s in saturations(u | v))

    def test_absorption_of_saturated_parts(self):
        # For every branch w of u | w1 with w1 saturated, w splits
        # as w1 plus a branch of u alone.
        rng = random.Random(59)
        checked = 0
        for _ in range(400):
            u = frozenset(
                random_formula(rng, 5, ["p", "q"], falsum_rate=0.03)
                for _ in range(rng.randint(1, 2))
            )
            v = frozenset(
                random_formula(rng, 5, ["p", "q"], falsum_rate=0.03)
                for _ in range(rng.randint(1, 2))
            )
            for w1 in saturations(v):
                for w in saturations(u | w1):
                    checked += 1
                    assert any(w1 | s == w for s in saturations(u))
                    assert set_degree(w - w1) <= set_degree(u)
        assert checked > 100

    def test_true_pick_branch_exists(self):
        # A seed true at a world always has a branch that is entirely true
        # there; this is what makes exhaustive branch search complete.
        from densemodal import bounded_search, truth_set

        rng = random.Random(151)
        checked = 0
        for _ in range(150):
            seed = frozenset(
                random_formula(rng, 5, ["p"], (MOD_A, MOD_B), falsum_rate=0.03)
                for _ in range(rng.randint(1, 2))
            )
            model = bounded_search(seed, "all", max_worlds=2, max_atoms=1)
            if model is None:
                continue
            true_at_root = {
                f for f in csf(seed) if model.root in truth_set(model, f)
            }
            assert any(s <= true_at_root for s in saturations(seed))
            checked += 1
        assert checked > 40


def _opaque_atoms(f):
    if isinstance(f, Not):
        return _opaque_atoms(f.child)
    if isinstance(f, And):
        return _opaque_atoms(f.left) | _opaque_atoms(f.right)
    if isinstance(f, FALSUM.__class__):
        return set()
    return {f}


def _opaque_eval(f, assignment):
    if isinstance(f, Not):
        return not _opaque_eval(f.child, assignment)
    if isinstance(f, And):
        return _opaque_eval(f.left, assignment) and _opaque_eval(f.right, assignment)
    if isinstance(f, FALSUM.__class__):
        return False
    return assignment[f]
