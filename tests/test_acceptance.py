"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  The shared corpora are computed once per module; criterion 8 audits
every continuation generated while criteria 1 and 3 run.
"""

import os
import random
import subprocess
import sys
import time

import pytest

import densemodal.windows as windows_mod
from densemodal import (
    Atom,
    Box,
    MOD_A,
    MOD_B,
    Not,
    SAT,
    SatResult,
    UNSAT,
    all_formulas,
    bounded_search,
    csf,
    is_dense,
    is_weakly_dense,
    kde_sat,
    kde_solve,
    kde_valid,
    k_valid,
    model_check,
    parse,
    relativize,
    sat_set,
    set_degree,
    size,
    truth_set,
)
from densemodal.errors import InvariantError
from densemodal.kde import frame_model
from densemodal.saturation import is_saturation_of, saturation_family
from conftest import is_window, random_formula
from counter_reference import CounterSearch, reference_sat_set


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# Shared fixtures.


@pytest.fixture(scope="module")
def continuation_audit():
    """Wrap window generation so criterion 8 sees every continuation produced.

    A window is a bare tuple of parts, so each initial window's diamond
    body is looked up by the identity of the tuple initial_windows yielded;
    the audit holds that tuple, so its id is not reused.
    """
    real_initial, real = windows_mod.initial_windows, windows_mod.continuations
    audit = {"checked": 0, "violations": 0}
    bodies = {}

    def recording(boxa, k, body, *tables):
        for parts in real_initial(boxa, k, body, *tables):
            bodies[id(parts)] = (parts, body)
            yield parts

    def checking(boxa, parts, *tables):
        _, extra = bodies.get(id(parts), (None, None))
        for cont in real(boxa, parts, *tables):
            merged = (parts[0],) + cont
            audit["checked"] += 1
            if not is_window(merged, boxa, extra):
                audit["violations"] += 1
            yield cont

    windows_mod.initial_windows = recording
    windows_mod.continuations = checking
    yield audit
    windows_mod.initial_windows = real_initial
    windows_mod.continuations = real


@pytest.fixture(scope="module")
def kde_corpus():
    """Criteria 2, 4, 5 share this: every unimodal formula with at most
    seven nodes over one atom, plus a deterministic sample over two atoms."""
    start = time.monotonic()
    entries = []
    for phi in all_formulas(7, ["p"]):
        solved = kde_solve(phi)
        ix, frame = solved.index, solved.frame
        witness = solved.witness()
        result = SatResult(UNSAT if witness is None else SAT, witness, None)
        found = bounded_search({phi}, "dense", max_worlds=3, max_atoms=1)
        entries.append((phi, ix, frame, result, found))
    sampled = []
    for phi in all_formulas(6, ["p", "q"])[::7]:
        result = kde_sat(phi)
        found = bounded_search({phi}, "dense", max_worlds=3, max_atoms=2)
        sampled.append((phi, result, found))
    return {"entries": entries, "sampled": sampled, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def kdeab_corpus(continuation_audit):
    """Criteria 3, 8, 9 share this: every bimodal formula with at most six
    nodes over one atom."""
    start = time.monotonic()
    entries = []
    for phi in all_formulas(6, ["p"], modalities=(MOD_A, MOD_B)):
        try:
            result = sat_set({phi})
            error = None
        except InvariantError as exc:
            result, error = None, str(exc)
        found = bounded_search({phi}, "weakly_dense", max_worlds=2, max_atoms=1)
        entries.append((phi, result, found, error))
    return {"entries": entries, "elapsed": time.monotonic() - start}


# --------------------------------------------------------------------------
# Criteria.


def test_criterion_01_axioms(continuation_audit):
    start = time.monotonic()
    dense_ok = kde_valid(parse("[][]p -> []p"))
    dense_elapsed = time.monotonic() - start

    start = time.monotonic()
    weak_verdict = sat_set({parse("~([a][b]p -> [a]p)", "bimodal")}).verdict
    weak_elapsed = time.monotonic() - start

    ok = dense_ok and weak_verdict == UNSAT and dense_elapsed < 1.0 and weak_elapsed < 1.0
    report(1, ok, f"axioms in {dense_elapsed:.3f}s and {weak_elapsed:.3f}s")
    assert dense_ok
    assert weak_verdict == UNSAT
    assert dense_elapsed < 1.0 and weak_elapsed < 1.0


def test_criterion_02_kde_oracle_agreement(kde_corpus):
    agreement = witness = 0
    for phi, _, _, result, found in kde_corpus["entries"]:
        if found is not None:
            assert result.verdict == SAT, f"oracle found a dense model for {phi}"
            agreement += 1
        if result.verdict == SAT:
            m = result.witness
            assert model_check(m, m.root, phi), f"witness fails for {phi}"
            assert is_dense(m), f"witness frame not dense for {phi}"
            witness += 1
    for phi, result, found in kde_corpus["sampled"]:
        if found is not None:
            assert result.verdict == SAT, f"(2 atoms) oracle found a model for {phi}"
            agreement += 1
        if result.verdict == SAT:
            m = result.witness
            assert model_check(m, m.root, phi) and is_dense(m)
    elapsed = kde_corpus["elapsed"]
    ok = elapsed < 300.0
    report(
        2,
        ok,
        f"{len(kde_corpus['entries'])} + {len(kde_corpus['sampled'])} formulas, "
        f"{agreement} oracle hits, {witness} witnesses verified, {elapsed:.1f}s",
    )
    assert ok, f"suite took {elapsed:.1f}s (budget 300s)"


def test_criterion_03_kdeab_oracle_agreement(kdeab_corpus):
    sat_count = hit = 0
    for phi, result, found, error in kdeab_corpus["entries"]:
        assert error is None, f"witness verification raised for {phi}: {error}"
        if found is not None:
            assert result.verdict == SAT, f"oracle found a weakly dense model for {phi}"
            hit += 1
        if result.verdict == SAT:
            m = result.witness
            assert is_weakly_dense(m), f"witness not weakly dense for {phi}"
            assert model_check(m, m.root, phi), f"witness fails model_check for {phi}"
            sat_count += 1
    elapsed = kdeab_corpus["elapsed"]
    ok = elapsed < 600.0
    report(
        3,
        ok,
        f"{len(kdeab_corpus['entries'])} formulas, {hit} oracle hits, "
        f"{sat_count} certificates verified, {elapsed:.1f}s",
    )
    assert ok, f"suite took {elapsed:.1f}s (budget 600s)"


def test_criterion_04_profile_truth(kde_corpus):
    checked = 0
    for phi, ix, frame, _, _ in kde_corpus["entries"]:
        order = sorted(frame.profiles)
        ids = {p: i for i, p in enumerate(order)}
        model = frame_model(frame, ix, order[0])
        for i, entry in enumerate(ix.entries):
            holds = truth_set(model, entry)
            for p in order:
                assert (ids[p] in holds) == (p[i] == 1), (
                    f"profile bit mismatch for {phi} at entry {i}"
                )
                checked += 1
    report(4, True, f"{checked} profile bits verified, zero mismatches")


def test_criterion_05_fixpoint_density(kde_corpus):
    for phi, ix, frame, _, _ in kde_corpus["entries"]:
        assert frame.profiles, f"empty fixpoint for {phi}"
        model = frame_model(frame, ix, min(frame.profiles))
        assert is_dense(model), f"fixpoint frame not dense for {phi}"
    report(5, True, f"{len(kde_corpus['entries'])} fixpoint frames dense and nonempty")


def test_criterion_06_translation_equivalence():
    start = time.monotonic()
    corpus = all_formulas(6, ["q"])
    for phi in corpus:
        guarded = relativize("p", phi)
        assert size(guarded) <= 5 * size(phi), f"size bound broken for {phi}"
        assert k_valid(phi) == kde_valid(guarded), f"solvers disagree on {phi}"
    elapsed = time.monotonic() - start
    ok = elapsed < 300.0
    report(6, ok, f"{len(corpus)} p-free formulas agree across solvers, {elapsed:.1f}s")
    assert ok, f"suite took {elapsed:.1f}s (budget 300s)"


def test_criterion_07_saturation_algebra():
    # For saturations w1 of v and w of u|w1, four algebra items,
    # each verified by enumerating the relevant families:
    #   (1) w is closed and contains a real branch of u|v: it lies between
    #       u|v and csf(u|v), is its own saturation (closed under the rules
    #       and clash-free), and contains some saturation of u|v;
    #   (2) every saturation of u|v is a union of a saturation of u and a
    #       saturation of v;
    #   (3) w is w1 plus some saturation of u;
    #   (4) what w adds to w1 has no greater modal degree than u.
    # Item (1) cannot ask that w be a saturation of u|v itself: a branch w1
    # of v may pick a disjunct that u already blocks in u|v, and item (3)
    # forces w to keep it (see TestAlgebra in test_saturation.py).  With
    # v = {~(p&q)}, u = {~p} and w1 = {~(p&q), ~q}, the only w is
    # {~p, ~q, ~(p&q)}, while u|v = {~p, ~(p&q)} is already saturated.
    rng = random.Random(20260810)
    names = ["p", "q"]
    pairs = 0
    instances = 0
    violations = {1: 0, 2: 0, 3: 0, 4: 0}
    examples = {}

    def violated(item, case):
        violations[item] += 1
        examples.setdefault(item, case)

    while pairs < 1000:
        u = frozenset(
            random_formula(rng, rng.randint(1, 5), names, (MOD_A, MOD_B), 0.03)
            for _ in range(rng.randint(1, 3))
        )
        v = frozenset(
            random_formula(rng, rng.randint(1, 5), names, (MOD_A, MOD_B), 0.03)
            for _ in range(rng.randint(1, 3))
        )
        pairs += 1
        uv = u | v
        for w1 in saturation_family(v):
            for w in saturation_family(frozenset(u | w1)):
                instances += 1
                case = (u, v, w1, w)
                if not (
                    uv <= w <= csf(uv)
                    and is_saturation_of(w, w)
                    and any(s <= w for s in saturation_family(uv))
                ):
                    violated(1, case)
                if set_degree(w - w1) > set_degree(u):
                    violated(4, case)
                if not any(w1 | s == w for s in saturation_family(u)):
                    violated(3, case)
        for w in saturation_family(uv):
            fu, fv = tuple(saturation_family(u)), tuple(saturation_family(v))
            if not any(a | b == w for a in fu for b in fv):
                violated(2, (u, v, None, w))
    total = sum(violations.values())
    report(
        7,
        total == 0,
        f"{pairs} pairs, {instances} instances, violations per item: {violations}",
    )
    assert total == 0, (
        f"saturation algebra violations {violations}; "
        f"first (u, v, w1, w) case per failing item: {examples}"
    )


def test_criterion_08_continuation_audit(continuation_audit, kdeab_corpus):
    checked = continuation_audit["checked"]
    violations = continuation_audit["violations"]
    ok = checked > 0 and violations == 0
    report(8, ok, f"{checked} continuations merged and checked, {violations} violations")
    assert checked > 0
    assert violations == 0


def test_criterion_09_bound_policy_agreement(kdeab_corpus):
    # The lasso search against the paper's counter walk
    # (tests/counter_reference.py), on every formula with a saturation.
    # The walk counts each chain's budget over the windows reachable from
    # its start, so formulas whose 2**(M*(d+1)) budget could never be
    # walked are compared too.
    compared = disagreements = 0
    for phi, result, _, _ in kdeab_corpus["entries"]:
        if not saturation_family(frozenset({phi})):
            continue
        compared += 1
        reference = reference_sat_set({phi})
        if not (result.verdict == reference.verdict and result.witness == reference.witness):
            disagreements += 1
    # The worked anchor is saturated, so it is its own only saturation and
    # sat_set decides exactly it.
    worked = frozenset({Box(MOD_A, Atom("q")), Not(Box(MOD_A, Atom("p")))})
    worked_ok = (
        tuple(saturation_family(worked)) == (worked,)
        and sat_set(worked).verdict == SAT
        and CounterSearch().sat_members(worked, 0) is not None
    )
    ok = disagreements == 0 and worked_ok and compared == 1958
    report(9, ok, f"{compared} formulas compared with the counter walk, {disagreements} disagreements")
    assert compared == 1958
    assert worked_ok
    assert disagreements == 0


CLI_CASES = [
    ["solve", "--logic", "kde", "--mode", "valid", "[][]p -> []p"],
    ["solve", "--logic", "kde", "--mode", "valid", "--model", "{tmp}", "[]p -> p"],
    ["solve", "--logic", "kde", "--mode", "sat", "--stats", "<>p & ~p"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "~([a][b]p -> [a]p)"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "--model", "{tmp}", "--stats", "~[a]p"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "--stats", "<a>(p & q) & [a]<b>r"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "--no-memo", "~[a]p"],
    ["solve", "--logic", "kdeab", "--mode", "valid", "[a][b]p -> [a]p"],
    ["oracle", "--class", "weakly-dense", "--max-worlds", "2", "~[a]p"],
    ["oracle", "--class", "dense", "--max-worlds", "3", "<>p & ~p"],
    ["oracle", "--class", "all", "--max-worlds", "3", "~([][]p -> []p)"],
    ["translate", "--fresh", "p", "[]q"],
    ["translate", "<>q"],
    ["corpus", "--logic", "kde", "--max-size", "4", "--atoms", "1", "--oracle-worlds", "3"],
    ["corpus", "--logic", "kdeab", "--max-size", "4", "--atoms", "1", "--oracle-worlds", "2"],
]


def test_criterion_10_cli_determinism(tmp_path):
    def invoke(case, run_id, hash_seed):
        model_path = tmp_path / f"model-{run_id}.json"
        argv = [arg.replace("{tmp}", str(model_path)) for arg in case]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "densemodal", *argv],
            capture_output=True,
            env=env,
        )
        model_bytes = model_path.read_bytes() if model_path.exists() else b""
        return proc.returncode, proc.stdout, model_bytes

    for index, case in enumerate(CLI_CASES):
        first = invoke(case, f"{index}-a", "1")
        second = invoke(case, f"{index}-b", "2")
        assert first == second, f"nondeterministic output for {case}"
        assert first[0] == 0, f"unexpected exit code for {case}"
    report(10, True, f"{len(CLI_CASES)} invocations byte-identical across runs")
