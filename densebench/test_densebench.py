"""Tests of the benchmark itself: inputs, checks, deadlines and tracing.

    python3 -m pytest densebench -q
"""

import contextlib
import io
import json
import os
import random
import signal
import sys
from dataclasses import replace
from itertools import islice

import pytest

from densebench import calibrate, gen, layers
from densebench import workloads as W
from densebench.checks import Checker
from densebench.ops import Op, execute, install_deadline
from densebench.program import Program
from densebench.run import Runner
from densebench.trace import Tracer
from densebench.workloads import WORKLOADS, XVAL_SLICES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def prog():
    previous = signal.getsignal(signal.SIGPROF)
    install_deadline()
    program = Program(ROOT)
    program.load()
    yield program
    signal.signal(signal.SIGPROF, previous)


@pytest.fixture
def model_path(tmp_path):
    return str(tmp_path / "model.json")


def first_ops(prog, name, seed, rounds=3):
    stream = WORKLOADS[name].stream(random.Random(seed), prog)
    return [op for batch in islice(stream, rounds) for op in batch]


def to_core(phi) -> tuple:
    """The program's AST in the generator's tuple shape."""
    kind = type(phi).__name__
    if kind == "Atom":
        return ("atom", phi.name)
    if kind == "Not":
        return ("not", to_core(phi.child))
    if kind == "And":
        return ("and", to_core(phi.left), to_core(phi.right))
    if kind == "Box":
        return ("box", phi.modality, to_core(phi.child))
    raise AssertionError(f"unexpected node {kind}")


def atoms_of(phi: tuple) -> set:
    return {f[1] for f in gen.subterms(phi) if f[0] == "atom"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_reproduces_byte_identical_text(prog, name):
    texts = [op.text for op in first_ops(prog, name, 11)]
    assert texts == [op.text for op in first_ops(prog, name, 11)]
    assert texts != [op.text for op in first_ops(prog, name, 12)]


def test_generated_formulas_render_to_text_that_parses_back(prog):
    rng = random.Random(7)
    unimodal = [W.kde_formula(rng, bits) for bits in (4, 5, 6, 7, 10)] + [W.kvalid_formula(rng)]
    bimodal = [W.kdeab_cnf(rng, 3, 1), W.kdeab_cnf(rng, 4, 2), W.kdeab_lits(rng)]
    for phi, bi in [(phi, False) for phi in unimodal] + [(phi, True) for phi in bimodal]:
        mode = prog.formula.BIMODAL if bi else prog.formula.UNIMODAL
        assert to_core(prog.formula.parse(gen.render(phi, bi), mode)) == phi


def test_kde_slices_hold_their_free_bits(prog):
    for op in first_ops(prog, "kde_solve", 5):
        phi = prog.formula.parse(op.text, prog.formula.UNIMODAL)
        core = to_core(phi)
        bits = len(prog.kde.build_index(phi).free_positions)
        assert bits == gen.free_bits(core)
        if op.slice == "kvalid":
            assert 4 <= bits <= 6
        else:
            assert bits == int(op.slice[4:])
            assert 1 <= gen.depth(core) <= 2


def test_kdeab_slices_hold_their_shape(prog):
    seen = set()
    for op in first_ops(prog, "kdeab_solve", 5):
        seen.add(op.slice)
        core = to_core(prog.formula.parse(op.text, prog.formula.BIMODAL))
        depth, disjunctions = gen.depth(core), gen.top_disjunctions(core)
        if op.slice.startswith("cnf"):
            assert disjunctions == int(op.slice[3:]) and 1 <= depth <= 2
        else:
            assert op.slice == "lits" and disjunctions == 0 and depth == 2
        assert atoms_of(core) <= {"p", "q", "r"}
    assert seen == {"cnf3", "cnf4", "lits"}


def test_xval_samples_the_acceptance_corpora(prog):
    limits = {name: (nodes, set(atoms)) for name, _, nodes, atoms, _, _, _ in XVAL_SLICES}
    strata = {name: counts for name, *_, counts in XVAL_SLICES}
    seen: dict = {}
    for op in first_ops(prog, "xval", 5):
        mode = prog.formula.UNIMODAL if op.logic == "kde" else prog.formula.BIMODAL
        phi = prog.formula.parse(op.text, mode)
        nodes, atoms = limits[op.slice]
        assert prog.formula.size(phi) <= nodes
        assert prog.formula.atom_names(phi) <= atoms
        key = (op.slice, W.one_world_sat(phi, sorted(atoms)))
        seen[key] = seen.get(key, 0) + 1
    assert seen == {(name, shallow): 3 * counts[not shallow] for name, counts in strata.items() for shallow in (True, False)}


@pytest.mark.parametrize(
    "text, expected",
    [("p & ~p", False), ("[]p & ~p", True), ("<>p", True), ("~[]p & []p", False), ("[](p & ~p) & <>q", False)],
)
def test_one_world_sat(prog, text, expected):
    phi = prog.formula.parse(text, prog.formula.UNIMODAL)
    assert W.one_world_sat(phi, ["p", "q"]) is expected


class _Tampered:
    """Stands in for the program, rewriting what one CLI call produced."""

    def __init__(self, prog, edit):
        self.__dict__.update(vars(prog))
        self.cli = self
        self._main, self._edit = prog.cli.main, edit

    def main(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self._main(argv)
        sys.stdout.write(self._edit(argv, buffer.getvalue()))
        return code


def _flip(argv, out):
    if argv[0] != "solve":
        return out
    swap = {"SAT": "UNSAT", "UNSAT": "SAT", "VALID": "INVALID", "INVALID": "VALID"}
    lines = out.splitlines(keepends=True)
    lines[0] = swap[lines[0].strip()] + "\n"
    return "".join(lines)


def _run_one(prog, op, model_path):
    workload = next(w for w in WORKLOADS.values() if op.slice in w.deadlines)
    return Runner(prog, workload, model_path).run([op])[0]


@pytest.mark.parametrize(
    "op",
    [
        Op("bits4", "solve", "kde", "<>p & [](q | r)", mode="sat"),
        Op("bits4", "solve", "kde", "[]p -> [][]p", mode="valid"),
        Op("lits", "solve", "kdeab", "<a>p & [a][b]q", mode="sat"),
        Op("lits", "solve", "kdeab", "[a]p -> [a][b]p", mode="valid"),
        Op("lits", "solve", "kdeab", "p & ~p", mode="sat"),
        Op("uni_p", "xval", "kde", "<>p", frame_class="dense", worlds=3),
    ],
)
def test_a_flipped_verdict_is_a_failed_op(prog, model_path, op):
    outcome, failure = _run_one(prog, op, model_path)
    assert failure is None, failure
    _, failure = _run_one(_Tampered(prog, _flip), op, model_path)
    assert failure is not None and failure.startswith("check failed")


@pytest.mark.parametrize(
    "op",
    [
        Op("bits4", "solve", "kde", "<>p & [](q | r)", mode="sat"),
        Op("lits", "solve", "kdeab", "<a>p & [a][b]q", mode="sat"),
        Op("lits", "solve", "kdeab", "[a]p -> [a][b]p", mode="valid"),
    ],
)
def test_a_tampered_model_file_is_a_failed_op(prog, model_path, op):
    def tamper(argv, out):
        path = argv[argv.index("--model") + 1]
        with open(path, encoding="utf-8") as handle:
            model = json.load(handle)
        model["val"] = {name: [] for name in model["val"]} if op.mode == "sat" else {"p": model["worlds"]}
        model["rb"] = []
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(model, handle)
        return out

    _, failure = _run_one(_Tampered(prog, tamper), op, model_path)
    assert failure is not None and failure.startswith("check failed")


def test_a_timeout_is_a_failed_op(prog, model_path):
    # A fixpoint at 10 free bits takes about a minute.
    text = gen.render(W.kde_formula(random.Random(3), 10), False)
    op = Op("bits10", "solve", "kde", text, mode="sat")
    outcome = execute(prog, op, 0.05, model_path)
    assert outcome.status == "timeout"
    assert Checker(prog).check(op, outcome).startswith("timeout")


def test_tracing_restores_every_original_and_changes_no_output(prog, model_path):
    ops = first_ops(prog, "kdeab_solve", 3, rounds=1)[:12] + first_ops(prog, "xval", 3, rounds=1)[:12]
    runner = Runner(prog, WORKLOADS["kdeab_solve"], model_path)
    runner.workload = replace(runner.workload, deadlines={op.slice: 10.0 for op in ops})
    plain = runner.run(ops)
    sites = [(m, a) for m in (prog.cli, prog.kde, prog.kdeab, prog.windows) for a in dir(m)]
    before = {(id(m), a): getattr(m, a) for m, a in sites}
    tracer = Tracer()
    layers.install(tracer, prog, runner.checker)
    try:
        traced = runner.run(ops, tracer=tracer)
    finally:
        tracer.restore()
    assert all(getattr(m, a) is before[(id(m), a)] for m, a in sites)
    assert tracer.missing == []
    assert [o.summary() for o, _ in plain] == [o.summary() for o, _ in traced]
    values = layers.metrics(tracer, [o for o, _ in traced], 1.0)
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    assert values["kdeab.sat_set.calls"] > 0 and values["saturation.family.calls"] > 0


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_the_reference_load_is_the_same_work_every_time():
    assert calibrate._load() == calibrate._load()
    assert 0 < calibrate.sample() < 1
