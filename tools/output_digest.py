"""Print a digest of what a benchmark workload's first ops output.

    python3 tools/output_digest.py --workload xval --ops 300
    python3 tools/output_digest.py --workload xval --ops 300 --drop-stats

Replays the first N ops of the workload's op stream for seed 401 through
`densebench.ops.execute`, as the benchmark runs them, and prints the first
12 hex digits of a SHA-256 over every op's outcome summary: its status,
and each call's exit code, stdout and model file.
Two checkouts, or two processes, that print the same digest gave
byte-identical output on those ops.  Exits 1 if an op did not answer.

With --drop-stats, each call's stdout is read as lines, and a call run
with `--stats` loses its second line, the search counters: the
verdict-and-model digest.  Two checkouts that print the same such digest
gave the same verdicts, witnesses and countermodels, whatever their
counters read, so a change that moves a counter on purpose can show that
it moved nothing else.
"""

import argparse
import hashlib
import itertools
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from densebench.ops import execute, install_deadline  # noqa: E402
from densebench.program import Program  # noqa: E402
from densebench.workloads import WORKLOADS  # noqa: E402

# The op-stream seed whose digests CHANGES.md and CI quote.
SEED = 401


def _without_stats(call) -> str:
    """The call's stdout lines, joined by newlines, without its --stats line."""
    lines = call.out.splitlines()
    if "--stats" in call.argv:
        del lines[1:2]
    return "\n".join(lines)


def digest(workload: str, ops: int, drop_stats: bool = False) -> tuple[str, int]:
    """The digest prefix of the first `ops` ops, and how many did not answer.

    drop_stats digests each op's status, and each call's exit code, stdout
    without its --stats line and model file, instead of the op's summary.
    """
    wl = WORKLOADS[workload]
    prog = Program(ROOT)
    prog.load()
    install_deadline()
    stream = wl.stream(random.Random(SEED), prog)
    h = hashlib.sha256()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        model_path = os.path.join(tmp, "model.json")
        for op in itertools.islice(itertools.chain.from_iterable(stream), ops):
            outcome = execute(prog, op, wl.deadlines[op.slice], model_path)
            failed += outcome.status != "ok"
            if drop_stats:
                calls = tuple((c.code, _without_stats(c), c.model) for c in outcome.calls)
                summary = (outcome.status, calls)
            else:
                summary = outcome.summary()
            h.update(repr(summary).encode())
    return h.hexdigest()[:12], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument(
        "--drop-stats", action="store_true",
        help="digest verdicts and models only: drop each call's --stats line",
    )
    args = parser.parse_args(argv)
    prefix, failed = digest(args.workload, args.ops, args.drop_stats)
    print(prefix)
    if failed:
        print(f"{failed} of {args.ops} ops did not answer", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
