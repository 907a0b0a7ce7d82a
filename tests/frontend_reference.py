"""Test-only references: the former CLI front end, kept for differential tests.

former_tokenize is rule_reference._tokenize, a copy of the tokenizer that
matched one token or one whitespace run per call, at a position it
advanced itself.  former_parse_either_mode always parses in unimodal mode
first and then in bimodal mode.  former_main always reads argv with the
top-level parser, which hands the tail to the subcommand's parser.  The
replacements in densemodal.formula and densemodal.cli must agree with
them on every input.
"""

import sys

import densemodal.cli as cli
from densemodal.formula import BIMODAL, UNIMODAL, ParseError
from rule_reference import _tokenize as former_tokenize  # noqa: F401


def former_parse_either_mode(text: str):
    try:
        return cli.parse(text, UNIMODAL)
    except ParseError as unimodal_error:
        try:
            return cli.parse(text, BIMODAL)
        except ParseError:
            raise unimodal_error


def former_main(argv) -> int:
    parser = cli._build_parser()
    try:
        args = parser.parse_args(argv)
    except cli._UsageError as exc:
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
    except (cli.InvariantError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 70


# Pieces of random front-end input: every token and whitespace of several
# kinds, and, less often, characters and words the tokenizer must reject
# or split.
TOKENS = (
    "p", "q", "r1", "x_2", "false", "true", "falsey", "truth",
    "[a]", "[b]", "[]", "<a>", "<b>", "<>", "->", "&", "|", "~", "(", ")",
    " ", "  ", "\t", "\n", "\u00a0", "\u2003",
)
NOISE = ("[", "]", "<", ">", "-", "[c]", "<c>", "[ a]", "P", "1", "_", "!", "\u00e9", "\u0301")


def random_text(rng, max_pieces: int = 12) -> str:
    return "".join(
        rng.choice(NOISE if rng.random() < 0.05 else TOKENS)
        for _ in range(rng.randrange(max_pieces + 1))
    )
