"""Command line front end: solve, oracle, translate and corpus subcommands.

Exit codes: 0 the question was answered (the verdict is on stdout), 64
usage error, 65 parse error, 70 a runtime self-check failed.  Verdicts
never map to nonzero exit codes, so scripts can tell UNSAT from failure.
Formulas nested deeper than formula.MAX_DEPTH (176) levels are parse
errors, so deep input exits 65 instead of overflowing the stack.  A
--model file that cannot be written, a negative --max-worlds, --max-size
or --oracle-worlds, and a translate --fresh guard that is not an atom name
are usage errors (64).  solve --logic kde is exponential in the free bits
(atom and box subformulas) and refuses more than kde.FREE_BIT_LIMIT (12)
with exit 64: with --stats --model, 8, 10 and 12 free bits measured
0.16-0.20 s, 1.0-1.2 s and 20-21 s of wall time with 21 MB, 73 MB and
0.68 GB peak memory on a shared 2-vCPU host, and each further bit
quadruples the work.

solve --logic kdeab accepts a window chain at its first repeated window.
Fewer than 2**(M*(d+1)) windows exist over an anchor with M closure
formulas and degree d, so every chain search ends; the paper's pigeonhole
rule, which waits for a chain that long, accepts the same chains.

Both logics take one solve path: valid mode asks the solver for the
satisfiability of the negation, so INVALID carries the negation's witness
as its countermodel.  The solver model-checks and frame-checks every
witness before it returns, with or without --model, so a witness that
fails exits 70 before anything is printed.  The --stats line comes from
the same solve as the verdict and the model.  Every model is written by
oracle.model_json_text; a kde solve reads its fixpoint frame as one model,
which serves the witness and the corpus runner's frame checks alike.

An argv that starts with a subcommand's name is read by that subcommand's
parser alone; any other argv (none, --help, an unknown command) is read by
the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import InvariantError
from .formula import (
    BIMODAL,
    Formula,
    MOD_A,
    MOD_B,
    Not,
    ParseError,
    UNIMODAL,
    all_formulas,
    atom_names,
    parse,
    render,
)
from .kde import kde_sat, kde_solve
from .kdeab import SAT, sat_set
from .oracle import KripkeModel, bounded_search, model_json_text, search_is_bimodal
# cli does not call these; densebench/layers.py wraps them as cli call sites.
from .kde import build_index, counter_model, fixpoint  # noqa: F401
from .oracle import is_dense, model_check  # noqa: F401
from .translate import fresh_atom, relativize

_CORPUS_ATOMS = ("p", "q", "r", "s")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first `main()` call.

    Parsing leaves the parser unchanged, so every call can share it.
    """
    parser = _Parser(prog="densemodal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide satisfiability or validity")
    solve.add_argument("--logic", choices=("kde", "kdeab"), required=True)
    solve.add_argument("--mode", choices=("sat", "valid"), required=True)
    solve.add_argument("--model", metavar="PATH", help="write the witness or countermodel JSON here")
    solve.add_argument(
        "--no-memo", action="store_true",
        help="kdeab: re-solve every repeated modal part; same verdict and witness, slower",
    )
    solve.add_argument("--stats", action="store_true")
    solve.add_argument("formula")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="exhaustive bounded model search")
    oracle.add_argument(
        "--class",
        dest="frame_class",
        choices=("all", "dense", "weakly-dense"),
        default="all",
    )
    oracle.add_argument("--max-worlds", type=int, default=3)
    oracle.add_argument("formula")
    oracle.set_defaults(func=_cmd_oracle)

    translate = sub.add_parser("translate", help="relativize boxes through a fresh guard atom")
    translate.add_argument("--fresh", metavar="ATOM")
    translate.add_argument("formula")
    translate.set_defaults(func=_cmd_translate)

    corpus = sub.add_parser("corpus", help="run the cross-validation suite on an enumerated corpus")
    corpus.add_argument("--logic", choices=("kde", "kdeab"), required=True)
    corpus.add_argument("--max-size", type=int, required=True)
    corpus.add_argument("--atoms", type=int, required=True)
    corpus.add_argument("--oracle-worlds", type=int, required=True)
    corpus.set_defaults(func=_cmd_corpus)

    parser._commands = sub.choices
    return parser


def _write_model(path: str, model: KripkeModel, include_rb: bool) -> None:
    text = model_json_text(model, include_rb) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write the model file: {exc}") from exc


def _check_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must not be negative, got {value}")


def _cmd_solve(args) -> int:
    phi = parse(args.formula, UNIMODAL if args.logic == "kde" else BIMODAL)
    query = phi if args.mode == "sat" else Not(phi)
    if args.logic == "kde":
        result = kde_sat(query)
    else:
        result = sat_set({query}, memo=not args.no_memo)
    if args.mode == "sat":
        print(result.verdict)
    else:
        print("INVALID" if result.verdict == SAT else "VALID")
    if args.stats:
        print(json.dumps(result.stats, sort_keys=True))
    if args.model and result.witness is not None:
        _write_model(args.model, result.witness, include_rb=args.logic == "kdeab")
    return 0


# A text holding one of these parses only in bimodal mode: each always
# reads as its own token, which unimodal mode rejects.
_INDEXED_OPS = ("[a]", "[b]", "<a>", "<b>")


def _parse_either_mode(text: str) -> Formula:
    """Parse in unimodal mode, else in bimodal mode; raise the unimodal error.

    A text with an indexed operator tries bimodal mode first, so a bimodal
    query is parsed once.  A text without one never needs bimodal mode:
    both modes then read the same tokens, and bimodal mode rejects every
    text unimodal mode rejects.
    """
    if any(op in text for op in _INDEXED_OPS):
        try:
            return parse(text, BIMODAL)
        except ParseError:
            pass
    return parse(text, UNIMODAL)


def _cmd_oracle(args) -> int:
    _check_nonnegative("--max-worlds", args.max_worlds)
    phi = _parse_either_mode(args.formula)
    frame_class = args.frame_class.replace("-", "_")
    model = bounded_search(
        {phi},
        frame_class,
        max_worlds=args.max_worlds,
        max_atoms=max(1, len(atom_names(phi))),
    )
    if model is None:
        print("NONE-WITHIN-BOUND")
        return 0
    print("FOUND")
    print(model_json_text(model, include_rb=search_is_bimodal({phi}, frame_class)))
    return 0


def _cmd_translate(args) -> int:
    phi = parse(args.formula, UNIMODAL)
    guard = args.fresh if args.fresh is not None else fresh_atom(phi)
    print(render(relativize(guard, phi), UNIMODAL))
    return 0


def _corpus_names(count: int) -> tuple[str, ...]:
    if not 1 <= count <= len(_CORPUS_ATOMS):
        raise ValueError(f"--atoms must be between 1 and {len(_CORPUS_ATOMS)}")
    return _CORPUS_ATOMS[:count]


def run_corpus(logic: str, max_size: int, atoms: int, oracle_worlds: int) -> tuple[list[str], bool]:
    """Cross-validate one logic's solver against the oracle.

    For every formula up to the size bound, of one modality for kde and of
    two for kdeab: the solver answers without an InvariantError (every SAT
    witness is checked inside the solver, so a bad one counts here), kde's
    fixpoint frame passes KdeResult.frame_failures, and the oracle never
    finds a model in the logic's frame class for a formula the solver
    rejects.  A kde formula's frame checks and its witness read one model,
    built once.
    """
    names = _corpus_names(atoms)
    kde = logic == "kde"
    frame_class = "dense" if kde else "weakly_dense"
    formulas = all_formulas(max_size, names, modalities=(MOD_A,) if kde else (MOD_A, MOD_B))
    sat_count = 0
    oracle_found = 0
    failures: list[str] = []
    for phi in formulas:
        try:
            if kde:
                result = kde_solve(phi)
                failures.extend(result.frame_failures())
                witness = result.witness()
            else:
                witness = sat_set({phi}).witness
        except InvariantError as exc:
            failures.append(f"solver invariant violated: {phi}: {exc}")
            continue
        if witness is not None:
            sat_count += 1
        found = bounded_search({phi}, frame_class, max_worlds=oracle_worlds, max_atoms=atoms)
        if found is not None:
            oracle_found += 1
            if witness is None:
                failures.append(
                    f"oracle found a {frame_class.replace('_', ' ')} model but solver said UNSAT: {phi}"
                )
    lines = [
        f"corpus {logic}: max-size={max_size} atoms={atoms} oracle-worlds={oracle_worlds}",
        f"formulas: {len(formulas)}",
        f"solver sat: {sat_count} unsat: {len(formulas) - sat_count}",
        f"oracle found: {oracle_found} none-within-bound: {len(formulas) - oracle_found}",
        f"violations: {len(failures)}",
    ]
    lines.extend(f"  {f}" for f in failures[:20])
    return lines, not failures


def _cmd_corpus(args) -> int:
    _check_nonnegative("--max-size", args.max_size)
    _check_nonnegative("--oracle-worlds", args.oracle_worlds)
    lines, ok = run_corpus(args.logic, args.max_size, args.atoms, args.oracle_worlds)
    for line in lines:
        print(line)
    print("CORPUS PASS" if ok else "CORPUS FAIL")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    command = parser._commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 65
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (InvariantError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 70
