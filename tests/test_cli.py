import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product

import pytest

import densemodal
import densemodal.kde as kde_module
from densemodal import (
    KdeResult,
    UNIMODAL,
    is_dense,
    is_weakly_dense,
    model_check,
    model_from_json,
    model_json_text,
    kde_solve,
    parse,
    render,
    truth_set,
)
import densemodal.cli as cli
from densemodal import formula
from densemodal.cli import _parse_either_mode, main, run_corpus
from densemodal.kde import build_index, fixpoint, frame_model, initial_frame
from densemodal.formula import (
    BIMODAL,
    MAX_DEPTH,
    MOD_A,
    MOD_B,
    Atom,
    ParseError,
    all_formulas,
    is_unimodal,
)
from densemodal.oracle import ModelTables
from conftest import MODAL_CHAINS, NESTINGS, random_formula
from frontend_reference import former_main, former_parse_either_mode, random_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_kde_valid_axiom(self, capsys):
        code, out, _ = run(capsys, "solve", "--logic", "kde", "--mode", "valid", "[][]p -> []p")
        assert (code, out) == (0, "VALID\n")

    def test_kde_invalid_with_countermodel(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve", "--logic", "kde", "--mode", "valid",
            "--model", str(path), "[]p -> p",
        )
        assert (code, out) == (0, "INVALID\n")
        model = model_from_json(json.loads(path.read_text()))
        assert is_dense(model)
        assert not model_check(model, model.root, parse("[]p -> p"))

    def test_kde_sat_with_witness(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve", "--logic", "kde", "--mode", "sat",
            "--model", str(path), "<>p & ~p",
        )
        assert (code, out) == (0, "SAT\n")
        model = model_from_json(json.loads(path.read_text()))
        assert model_check(model, model.root, parse("<>p & ~p"))

    def test_kdeab_axiom_negation(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat", "~([a][b]p -> [a]p)"
        )
        assert (code, out) == (0, "UNSAT\n")

    def test_kdeab_valid_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "valid", "[a][b]p -> [a]p"
        )
        assert (code, out) == (0, "VALID\n")

    def test_kdeab_witness_and_stats(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat",
            "--stats", "--model", str(path), "~[a]p",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SAT"
        stats = json.loads(lines[1])
        assert set(stats) == {"max_depth", "saturations", "windows"}
        model = model_from_json(json.loads(path.read_text()))
        assert is_weakly_dense(model)

    def test_no_model_file_when_unsat(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat",
            "--model", str(path), "p & ~p",
        )
        assert (code, out) == (0, "UNSAT\n")
        assert not path.exists()

    def test_counter_bound_flag(self, capsys):
        # The lasso search is the one chain stopping rule; --bound is gone.
        code, out, err = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat",
            "--bound", "counter", "--no-memo", "~[a]p",
        )
        assert (code, out) == (64, "")
        assert err.startswith("usage error:") and "--bound" in err

    def test_counter_bound_answers_where_its_budget_is_2_to_the_48(self, capsys):
        # The paper's pigeonhole budget is 2**48 here, and a walk of the
        # whole budget never ends; the lasso search answers at once.  It
        # tries two saturations: the root's and the chain head's b-child.
        start = time.monotonic()
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat",
            "--stats", "<a>(p & q) & [a]<b>r",
        )
        elapsed = time.monotonic() - start
        assert (code, out) == (0, 'SAT\n{"max_depth": 2, "saturations": 2, "windows": 3}\n')
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_kdeab_search_options_have_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--bound" not in out
        assert "--no-memo kdeab: re-solve" in out


class TestOracle:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "oracle", "--class", "weakly-dense", "--max-worlds", "2", "~[a]p")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "FOUND"
        data = json.loads(lines[1])
        assert data["worlds"] == [0] and data["rb"] == [[0, 0]]

    def test_deep_box_query_answers_fast(self, capsys):
        # The found model is checked again by the model checker; on a frame
        # where every world sees both, a per-path checker visits 2**150 paths.
        text = "<>p & <>~p & [](<>p & <>~p) & " + "[]" * 150 + "q"
        start = time.monotonic()
        code, out, _ = run(capsys, "oracle", "--class", "all", "--max-worlds", "2", text)
        elapsed = time.monotonic() - start
        assert code == 0 and out.splitlines()[0] == "FOUND"
        assert json.loads(out.splitlines()[1])["ra"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_none_within_bound(self, capsys):
        code, out, _ = run(capsys, "oracle", "--class", "all", "--max-worlds", "3", "p & ~p")
        assert (code, out) == (0, "NONE-WITHIN-BOUND\n")

    def test_unimodal_output_omits_rb(self, capsys):
        code, out, _ = run(capsys, "oracle", "--class", "dense", "--max-worlds", "3", "<>p & ~p")
        data = json.loads(out.splitlines()[1])
        assert "rb" not in data

    def test_bound_guard_is_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--class", "all", "--max-worlds", "9", "p")
        assert code == 64
        assert "usage error" in err


class TestTranslate:
    def test_box_example(self, capsys):
        code, out, _ = run(capsys, "translate", "--fresh", "p", "[]q")
        assert (code, out) == (0, "[](p -> q)\n")

    def test_auto_fresh(self, capsys):
        code, out, _ = run(capsys, "translate", "<>q")
        assert (code, out) == (0, "<>(a & ~~q)\n")

    def test_used_guard_is_usage_error(self, capsys):
        code, _, err = run(capsys, "translate", "--fresh", "q", "[]q")
        assert code == 64

    @pytest.mark.parametrize("guard", ["false", "true", "P", "x&y"])
    def test_guard_that_is_not_an_atom_is_usage_error(self, capsys, guard):
        code, out, err = run(capsys, "translate", "--fresh", guard, "[]q")
        assert (code, out) == (64, "")
        assert err == f"usage error: guard {guard!r} is not an atom name\n"


class TestCorpus:
    def test_kdeab_smoke(self, capsys):
        code, out, _ = run(
            capsys, "corpus", "--logic", "kdeab", "--max-size", "3",
            "--atoms", "1", "--oracle-worlds", "2",
        )
        assert code == 0
        assert out.splitlines()[-1] == "CORPUS PASS"
        assert "formulas: 30" in out

    def test_kde_smoke(self, capsys):
        code, out, _ = run(
            capsys, "corpus", "--logic", "kde", "--max-size", "4",
            "--atoms", "1", "--oracle-worlds", "3",
        )
        assert code == 0
        assert out.splitlines()[-1] == "CORPUS PASS"

    def test_fixpoint_check_names_the_entries_a_frame_misses(self):
        # The initial frame keeps profiles whose false boxes have no
        # falsifying successor; each such entry is named, in index order.
        for text in ("<>p & [](p -> <>~p)", "<>(p & []false)"):
            phi = parse(text)
            ix = build_index(phi)
            assert kde_solve(phi).frame_failures() == []
            frame = initial_frame(ix)
            order = sorted(frame.profiles)
            model = frame_model(frame, ix, order[0])
            expected = [
                f"profile bit mismatch: {phi} at entry {i}"
                for i, entry in enumerate(ix.entries)
                if truth_set(model, entry) != {w for w, p in enumerate(order) if p[i]}
            ]
            assert expected
            if not is_dense(model):
                expected.insert(0, f"fixpoint frame not dense: {phi}")
            assert KdeResult(ix, frame, 0).frame_failures() == expected

    def test_each_kde_formula_builds_one_model(self, monkeypatch):
        # The frame checks and the witness read one model per formula.
        real = kde_module.frame_model
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kde_module, "frame_model", counting)
        lines, ok = run_corpus("kde", 5, 1, 3)
        assert ok
        assert lines[1:3] == ["formulas: 202", "solver sat: 149 unsat: 53"]
        assert len(calls) == 202


class TestExitCodes:
    def test_parse_error_is_65(self, capsys):
        code, _, err = run(capsys, "solve", "--logic", "kde", "--mode", "sat", "p &")
        assert code == 65
        assert "parse error" in err

    def test_mode_mismatch_is_65(self, capsys):
        code, _, err = run(capsys, "solve", "--logic", "kde", "--mode", "sat", "[a]p")
        assert code == 65

    def test_unknown_subcommand_is_64(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 64

    def test_missing_flag_is_64(self, capsys):
        code, _, _ = run(capsys, "solve", "--mode", "sat", "p")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["solve", "--logic", "kde", "--mode", "sat", "<>p & ~p"],
        ["solve", "--logic", "kde", "--mode", "valid", "[]p -> p"],
        ["solve", "--logic", "kdeab", "--mode", "sat", "~[a]p"],
        ["solve", "--logic", "kdeab", "--mode", "valid", "[a]p -> p"],
    ])
    def test_unwritable_model_file_is_64(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "model.json"
        code, out, err = run(capsys, *argv[:-1], "--model", str(path), argv[-1])
        assert code == 64
        assert out in ("SAT\n", "INVALID\n")
        assert err.startswith("usage error: cannot write the model file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["oracle", "--max-worlds", "-1", "p"],
        ["oracle", "--class", "weakly-dense", "--max-worlds", "-2", "~[a]p"],
        *(
            ["corpus", "--logic", logic, "--max-size", size, "--atoms", "1", "--oracle-worlds", worlds]
            for logic in ("kde", "kdeab")
            for size, worlds in (("-1", "2"), ("3", "-1"))
        ),
    ])
    def test_negative_bound_is_64(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage error: --") and "must not be negative" in err


# A self-check that fails: the check both solvers share, `oracle.verify`,
# rejects every witness.  Either the formula fails at the root (no world is
# in any truth set) or the frame is not in the logic's class; each logic
# meets both, and the error says which.  The ids name the check each case
# stands for.
BROKEN_CHECKS = [
    pytest.param("kde", "truth", "kde witness fails model_check on ", id="densemodal.kde-model_check"),
    pytest.param("kde", "in_class", "kde witness frame is not dense", id="densemodal.kde-is_dense"),
    pytest.param("kdeab", "truth", "extracted witness fails model_check on ", id="densemodal.kdeab-model_check"),
    pytest.param(
        "kdeab", "in_class", "extracted witness frame is not weakly dense", id="densemodal.kdeab-is_weakly_dense"
    ),
]

# Per logic: a satisfiable formula, an invalid one and an unsatisfiable one.
SELF_CHECK_CASES = {
    "kde": ("<>p & ~p", "[]p -> p", "p & ~p"),
    "kdeab": ("~[a]p", "[a]p -> p", "p & ~p"),
}


def break_check(monkeypatch, name):
    monkeypatch.setattr(ModelTables, name, lambda *args: False)


class TestSelfCheckFailure:
    @pytest.mark.parametrize("logic, name, message", BROKEN_CHECKS)
    def test_a_bad_witness_exits_70_before_printing(self, capsys, monkeypatch, tmp_path, logic, name, message):
        break_check(monkeypatch, name)
        sat_text, invalid_text, unsat_text = SELF_CHECK_CASES[logic]
        path = tmp_path / "model.json"
        queries = (("sat", sat_text), ("valid", invalid_text))
        for (mode, text), stats, model in product(queries, (False, True), (False, True)):
            argv = ["solve", "--logic", logic, "--mode", mode] + ["--stats"] * stats
            argv += ["--model", str(path)] * model
            code, out, err = run(capsys, *argv, text)
            assert (code, out) == (70, ""), argv
            assert err.startswith("internal invariant violation: " + message), argv
            assert not path.exists()
        # Answers without a witness have nothing to check.
        assert run(capsys, "solve", "--logic", logic, "--mode", "sat", unsat_text) == (0, "UNSAT\n", "")
        valid_text = f"~({unsat_text})"
        assert run(capsys, "solve", "--logic", logic, "--mode", "valid", valid_text) == (0, "VALID\n", "")

    @pytest.mark.parametrize("logic, name, message", BROKEN_CHECKS)
    def test_the_corpus_counts_it_as_a_violation(self, capsys, monkeypatch, logic, name, message):
        break_check(monkeypatch, name)
        code, out, _ = run(
            capsys, "corpus", "--logic", logic, "--max-size", "2", "--atoms", "1", "--oracle-worlds", "1",
        )
        lines = out.splitlines()
        assert (code, lines[-1]) == (0, "CORPUS FAIL")
        assert any(line.startswith("  solver invariant violated: ") and message in line for line in lines)

    @pytest.mark.parametrize("logic, name, message", BROKEN_CHECKS)
    def test_the_library_raises(self, monkeypatch, logic, name, message):
        break_check(monkeypatch, name)
        if logic == "kde":
            sat_text, invalid_text, _ = SELF_CHECK_CASES["kde"]
            calls = (
                lambda: densemodal.kde_sat(parse(sat_text)),
                lambda: densemodal.kde_valid(parse(invalid_text)),
                lambda: densemodal.counter_model(parse(invalid_text)),
            )
        else:
            sat_text, _, _ = SELF_CHECK_CASES["kdeab"]
            calls = (lambda: densemodal.sat_set({parse(sat_text, "bimodal")}),)
        for call in calls:
            with pytest.raises(densemodal.InvariantError) as caught:
                call()
            assert str(caught.value).startswith(message)


DEEP_COMMANDS = {
    "translate": ["translate"],
    "oracle": ["oracle", "--max-worlds", "1"],
    "kde": ["solve", "--logic", "kde", "--mode", "sat"],
}


class TestDeepNesting:
    @pytest.mark.parametrize("shape", sorted(NESTINGS))
    @pytest.mark.parametrize("command", sorted(DEEP_COMMANDS))
    def test_max_depth_answers_and_one_more_is_a_parse_error(self, capsys, command, shape):
        argv = DEEP_COMMANDS[command]
        code, out, err = run(capsys, *argv, NESTINGS[shape](MAX_DEPTH))
        if command == "kde" and shape in ("box", "diamond"):
            # One free bit per box: the kde guard refuses these cleanly.
            assert code == 64 and "free bits exceed" in err
        else:
            assert code == 0 and out and not err
        code, out, err = run(capsys, *argv, NESTINGS[shape](MAX_DEPTH + 1))
        assert code == 65 and not out
        assert f"deeper than {MAX_DEPTH} levels" in err

    @pytest.mark.parametrize(
        "mode, verdict, saturations",
        [("valid", "INVALID", 1), ("sat", "SAT", 1)],
    )
    def test_kdeab_answers_the_longest_atom_chain(self, capsys, mode, verdict, saturations):
        # p0 | ... | p176 sits at MAX_DEPTH.  Searching every interleaving
        # of the negated chain's conjunctions would visit about 2**178 sets
        # for valid mode's one saturation.  Sat mode's family has 177
        # members, and the search draws only the first, which it accepts.
        chain = " | ".join(f"p{i}" for i in range(MAX_DEPTH + 1))
        code, out, err = run(capsys, "solve", "--logic", "kdeab", "--mode", mode, "--stats", chain)
        stats = {"max_depth": 0, "saturations": saturations, "windows": 0}
        assert (code, out, err) == (0, f"{verdict}\n{json.dumps(stats)}\n", "")

    @pytest.mark.parametrize(
        "mode, verdict, saturations",
        [("valid", "INVALID", 1), ("sat", "SAT", 1)],
    )
    def test_kdeab_answers_the_repeated_atom_chain(self, capsys, mode, verdict, saturations):
        # p | p | ... | p sits at MAX_DEPTH.  Sorting its closure by nested
        # sort keys, which compare in time quadratic in depth, took 6-7 s.
        # Sat mode tries the first of its family's 176 members and accepts.
        chain = NESTINGS["disjunction"](MAX_DEPTH)
        start = time.process_time()
        code, out, err = run(capsys, "solve", "--logic", "kdeab", "--mode", mode, "--stats", chain)
        elapsed = time.process_time() - start
        stats = {"max_depth": 0, "saturations": saturations, "windows": 0}
        assert (code, out, err) == (0, f"{verdict}\n{json.dumps(stats)}\n", "")
        assert elapsed < 2.0, f"{elapsed:.2f} s of CPU"

    # Verdict, max_depth, saturations and windows of each chain at MAX_DEPTH.
    # A chain of 176 <a> keeps 176 window chains open at once, one per
    # level, each reading its continuations as a stream.
    MODAL_CHAIN_ANSWERS = {
        ("[a]", "sat"): ("SAT", 0, 1, 0),
        ("[a]", "valid"): ("INVALID", MAX_DEPTH, 1, 3 * MAX_DEPTH),
        ("<a>", "sat"): ("SAT", MAX_DEPTH, 1, 3 * MAX_DEPTH),
        ("<a>", "valid"): ("INVALID", 0, 1, 0),
        ("[b]", "sat"): ("SAT", 0, 1, 0),
        ("[b]", "valid"): ("INVALID", MAX_DEPTH, MAX_DEPTH + 1, 0),
        ("<b>", "sat"): ("SAT", MAX_DEPTH, MAX_DEPTH + 1, 0),
        ("<b>", "valid"): ("INVALID", 0, 1, 0),
        ("<a><b>", "sat"): ("SAT", MAX_DEPTH, MAX_DEPTH // 2 + 1, 3 * MAX_DEPTH // 2),
        ("<a><b>", "valid"): ("INVALID", 0, 1, 0),
    }

    @pytest.mark.parametrize("chain, mode", sorted(MODAL_CHAIN_ANSWERS))
    def test_kdeab_answers_modal_chains(self, capsys, chain, mode):
        verdict, max_depth, saturations, windows = self.MODAL_CHAIN_ANSWERS[chain, mode]
        text = MODAL_CHAINS[chain](MAX_DEPTH)
        code, out, err = run(capsys, "solve", "--logic", "kdeab", "--mode", mode, "--stats", text)
        stats = {"max_depth": max_depth, "saturations": saturations, "windows": windows}
        assert (code, out, err) == (0, f"{verdict}\n{json.dumps(stats)}\n", "")


def parent_solve_kde(mode, text):
    """The CLI's kde path as it was composed before `kde_solve`.

    The fixpoint for the stats line, then the profiles that set (sat) or
    clear (valid) the target bit, then `frame_model` at the least of them,
    then `model_json_text`.  Returns stdout and the model file's text.
    """
    phi = parse(text, UNIMODAL)
    frame, iterations = fixpoint(phi)
    ix = build_index(phi)
    last = ix.n - 1
    hits = sorted(p for p in frame.profiles if p[last] == 1)
    misses = sorted(p for p in frame.profiles if p[last] == 0)
    if mode == "sat":
        verdict, roots = ("SAT" if hits else "UNSAT"), hits
    else:
        verdict, roots = ("INVALID" if misses else "VALID"), misses
    stats = json.dumps(
        {"edges": len(frame.rel), "iterations": iterations, "profiles": len(frame.profiles)},
        sort_keys=True,
    )
    model = model_json_text(frame_model(frame, ix, roots[0]), False) + "\n" if roots else None
    return f"{verdict}\n{stats}\n", model


KDE_TEXTS = ["<>p & ~p", "p & ~p", "[][]p -> []p", "[]p -> p", "<>true & []false"]


class TestKdeSolvePath:
    def test_matches_the_parent_composition(self, capsys, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "model.json"
        checked = 0
        while checked < 300:
            phi = random_formula(rng, rng.choice((10, 20, 40)), ("p", "q", "r"))
            if len(build_index(phi).free_positions) > 7:
                continue
            checked += 1
            text = render(phi, UNIMODAL)
            for mode in ("sat", "valid"):
                if path.exists():
                    path.unlink()
                code, out, err = run(
                    capsys, "solve", "--logic", "kde", "--mode", mode,
                    "--stats", "--model", str(path), text,
                )
                model = path.read_text(encoding="utf-8") if path.exists() else None
                assert (code, err) == (0, "")
                assert (out, model) == parent_solve_kde(mode, text), (mode, text)

    @pytest.mark.parametrize("text", KDE_TEXTS)
    def test_one_fixpoint_per_query(self, capsys, tmp_path, monkeypatch, text):
        calls = []
        original = kde_module.fixpoint

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(kde_module, "fixpoint", counted)
        for mode, stats, model in product(("sat", "valid"), (False, True), (False, True)):
            argv = ["solve", "--logic", "kde", "--mode", mode]
            argv += ["--stats"] * stats + ["--model", str(tmp_path / "m.json")] * model
            calls.clear()
            code, _, _ = run(capsys, *argv, text)
            assert code == 0
            assert len(calls) == 1, argv


# One process, several calls, each checked against a fresh process.
REUSE_SEQUENCE = [
    ["solve", "--mode", "sat", "p"],
    ["solve", "--logic", "kde", "--mode", "sat", "p &"],
    ["--help"],
    ["solve", "--logic", "kde", "--mode", "valid", "--stats", "[]p -> p"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "--stats", "~[a]p"],
    ["solve", "--help"],
    ["solve", "--logic", "kde", "--mode", "sat", "--stats", "<>p & ~p"],
    ["solve", "--mode", "sat", "p"],
    ["bogus"],
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(densemodal.__file__)))


def fresh_process(argv, *args):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args, *argv], capture_output=True, text=True, env=env, check=False,
    )


class TestParserReuse:
    def test_each_call_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        codes = set()
        for argv in REUSE_SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = fresh_process(argv, "-m", "densemodal")
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.add(code)
        assert codes == {0, 64, 65}

    def test_import_builds_no_parser_and_main_builds_one(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **k):\n"
            "    built.append(self)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import densemodal.cli as cli\n"
            "after_import = len(built)\n"
            "cli.main(['solve', '--logic', 'kde', '--mode', 'sat', 'p'])\n"
            "after_one = len(built)\n"
            "cli.main(['solve', '--logic', 'kdeab', '--mode', 'sat', 'p'])\n"
            "cli.main(['bogus'])\n"
            "print(after_import, after_one, len(built))\n"
        )
        done = fresh_process([], "-c", script)
        assert done.returncode == 0, done.stderr
        after_import, after_one, after_three = map(int, done.stdout.split()[-3:])
        assert after_import == 0
        assert after_one > 0 and after_three == after_one


# Argvs the dispatch must answer exactly as the top-level parser does:
# every usage-error case of this file, then help, "--", "=" and
# abbreviated options, unknown options and commands, bad values, parse
# errors and no command at all.
DISPATCH_CASES = [
    ["solve", "--logic", "kdeab", "--mode", "sat", "--bound", "counter", "--no-memo", "~[a]p"],
    ["bogus"],
    ["solve", "--mode", "sat", "p"],
    *(
        argv[:-1] + ["--model", "{missing}", argv[-1]]
        for argv in (
            ["solve", "--logic", "kde", "--mode", "sat", "<>p & ~p"],
            ["solve", "--logic", "kde", "--mode", "valid", "[]p -> p"],
            ["solve", "--logic", "kdeab", "--mode", "sat", "~[a]p"],
            ["solve", "--logic", "kdeab", "--mode", "valid", "[a]p -> p"],
        )
    ),
    ["oracle", "--max-worlds", "-1", "p"],
    ["oracle", "--class", "weakly-dense", "--max-worlds", "-2", "~[a]p"],
    *(
        ["corpus", "--logic", logic, "--max-size", size, "--atoms", "1", "--oracle-worlds", worlds]
        for logic in ("kde", "kdeab")
        for size, worlds in (("-1", "2"), ("3", "-1"))
    ),
    ["oracle", "--class", "all", "--max-worlds", "9", "p"],
    ["corpus", "--logic", "kde", "--max-size", "1", "--atoms", "9", "--oracle-worlds", "1"],
    ["translate", "--fresh", "q", "[]q"],
    *(["translate", "--fresh", guard, "[]q"] for guard in ("false", "true", "P", "x&y")),
    ["solve", "--logic", "kde", "--mode", "sat", "p &"],
    ["solve", "--logic", "kde", "--mode", "sat", "[a]p"],
    [],
    ["-h"],
    ["--help"],
    ["--"],
    ["--", "solve", "--logic", "kde", "--mode", "sat", "p"],
    ["-h", "solve"],
    ["frob", "p"],
    ["SOLVE", "--logic", "kde", "--mode", "sat", "p"],
    ["sol", "--logic", "kde", "--mode", "sat", "p"],
    ["solve"],
    ["solve", "--help"],
    ["solve", "--logic", "kde", "-h"],
    ["oracle", "-h"],
    ["translate", "--help"],
    ["corpus", "--help"],
    ["solve", "--logic=kde", "--mode=valid", "[]p -> p"],
    ["solve", "--log", "kdeab", "--mo", "sat", "--st", "~[a]p"],
    ["solve", "--logic", "kde", "--mode", "sat", "--frob", "p"],
    ["solve", "--logic", "kde", "--mode", "sat", "p", "q"],
    ["solve", "--logic", "kde", "--mode", "sat", "--", "~p"],
    ["solve", "--logic", "kde", "--mode", "sat", "--", "-p"],
    ["solve", "--logic", "kdeab", "--mode", "sat", "-p"],
    ["solve", "--logic", "kde", "--mode", "maybe", "p"],
    ["solve", "--logic", "kde", "--mode", "sat"],
    ["oracle", "--max-worlds", "x", "p"],
    ["oracle", "--max-worlds", "2"],
    ["oracle", "--class", "nope", "p"],
    ["oracle", "--max-worlds", "2", "p & ("],
    ["oracle", "--max-worlds", "2", "[a]p & []q"],
    ["translate"],
    ["translate", "--fresh"],
    ["corpus", "--logic", "kde"],
]


def outcome(capsys, entry, argv):
    """Exit code, stdout, stderr and SystemExit code of one call."""
    code = exit_code = None
    try:
        code = entry(argv)
    except SystemExit as exc:
        exit_code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, exit_code


class TestDispatch:
    """main, which hands a known subcommand's argv to its parser, against
    the former main, which always went through the top-level parser."""

    def test_matches_the_top_level_parser(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        from test_acceptance import CLI_CASES

        cases = CLI_CASES + DISPATCH_CASES + REUSE_SEQUENCE
        results = set()
        for case in cases:
            sides = []
            for side, entry in (("new", main), ("former", former_main)):
                model = tmp_path / f"{side}.json"
                argv = [
                    arg.replace("{tmp}", str(model)).replace("{missing}", str(tmp_path / "none" / "m.json"))
                    for arg in case
                ]
                got = outcome(capsys, entry, argv)
                sides.append((got, model.read_bytes() if model.exists() else None))
                if model.exists():
                    model.unlink()
            assert sides[0] == sides[1], case
            got = sides[0][0]
            results.add(got[0] if got[3] is None else f"exit {got[3]}")
        assert results == {0, 64, 65, "exit 0"}

    def test_parses_argv_from_sys_argv_when_none_is_given(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["densemodal", "translate", "--fresh", "p", "[]q"])
        assert outcome(capsys, lambda _: main(), None) == (0, "[](p -> q)\n", "", None)
        monkeypatch.setattr(sys, "argv", ["densemodal"])
        code, out, err, _ = outcome(capsys, lambda _: main(), None)
        assert (code, out) == (64, "") and err.startswith("usage error: ")


class TestOneOracleParse:
    """The oracle's parse, which tries bimodal mode first on a text with an
    indexed operator, against the former unimodal-then-bimodal order."""

    @staticmethod
    def parsed(parse_text, text):
        try:
            return parse_text(text)
        except ParseError as err:
            return str(err)

    def test_matches_the_two_parse_order(self):
        rng = random.Random(223)
        corpus = all_formulas(6, ("p", "q"), (MOD_A, MOD_B))
        texts = [render(f, BIMODAL) for f in corpus]
        texts += [render(f, UNIMODAL) for f in corpus if is_unimodal(f)]
        texts += [random_text(rng) for _ in range(10_000)]
        outcomes = Counter()
        for text in texts:
            # Nodes are interned, so == on two results is identity.
            got = self.parsed(_parse_either_mode, text)
            assert got == self.parsed(former_parse_either_mode, text), text
            outcomes[isinstance(got, str), any(op in text for op in ("[a]", "[b]", "<a>", "<b>"))] += 1
        # Parsed and rejected texts, with and without indexed operators.
        assert min(outcomes.values()) > 500, outcomes

    @pytest.mark.parametrize("text, calls", [
        ("<a>p & [a][b]~p", 1),
        ("<>p & ~p", 1),
        ("p & ~q", 1),
        ("<a>p & []q", 2),
        ("p &", 1),
    ])
    def test_parse_calls_per_oracle_query(self, capsys, monkeypatch, text, calls):
        real = cli.parse
        modes = []

        def counting(text, mode):
            modes.append(mode)
            return real(text, mode)

        monkeypatch.setattr(cli, "parse", counting)
        code, out, err = run(capsys, "oracle", "--max-worlds", "2", text)
        assert len(modes) == calls, modes
        assert (code, out, err) == outcome(capsys, former_main, ["oracle", "--max-worlds", "2", text])[:3]
        if text == "<a>p & []q":
            assert err == "parse error: indexed operator '<a>' is not available in unimodal mode (column 0)\n"


class TestInternBookkeeping:
    """Entries of the intern table leave it with their nodes."""

    QUERIES = [
        ["solve", "--logic", "kdeab", "--mode", "sat", "--stats", "<a>(probe_p & probe_q) & [a]<b>probe_r"],
        ["oracle", "--class", "weakly-dense", "--max-worlds", "2", "~[a]probe_p & [b](probe_q | probe_r)"],
    ]

    def test_a_dropped_query_leaves_the_table_as_it_was(self, capsys):
        gc.collect()
        before = len(formula._refs), len(formula._table)
        for argv in self.QUERIES:
            assert run(capsys, *argv)[0] == 0
        gc.collect()
        assert (len(formula._refs), len(formula._table)) == before
        assert not any(key[0] is Atom and key[1][0].startswith("probe_") for key in formula._refs)

    def test_a_rebuilt_formula_is_one_node(self, capsys):
        text = self.QUERIES[1][-1]
        for argv in self.QUERIES:
            run(capsys, *argv)
        gc.collect()
        before = len(formula._refs)
        first = parse(text, BIMODAL)
        assert parse(text, BIMODAL) is first
        nodes = {id(f): f for f in formula._nodes(first)}
        assert len(formula._refs) == before + len(nodes)
        for node in nodes.values():
            key = (type(node), tuple(getattr(node, f) for f in node.__match_args__))
            ref = formula._refs[key]
            assert ref() is node and ref.key == key
        del first, nodes, node, ref
        gc.collect()
        assert len(formula._refs) == before
