import json

import pytest

from densemodal import is_dense, is_weakly_dense, model_check, model_from_json, parse
from densemodal.cli import main
from densemodal.formula import MAX_DEPTH
from conftest import NESTINGS


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
        code, out, _ = run(
            capsys, "solve", "--logic", "kdeab", "--mode", "sat",
            "--bound", "counter", "--no-memo", "~[a]p",
        )
        assert (code, out) == (0, "SAT\n")


class TestOracle:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "oracle", "--class", "weakly-dense", "--max-worlds", "2", "~[a]p")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "FOUND"
        data = json.loads(lines[1])
        assert data["worlds"] == [0] and data["rb"] == [[0, 0]]

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
