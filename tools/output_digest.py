"""Print a digest of what a benchmark workload's first ops output.

    python3 tools/output_digest.py --workload xval --ops 300

Replays the first N ops of the workload's op stream for seed 401 through
`densebench.ops.execute`, as the benchmark runs them, and prints the first
12 hex digits of a SHA-256 over every op's outcome summary: its status,
and each call's exit code, stdout and model file.
Two checkouts, or two processes, that print the same digest gave
byte-identical output on those ops.  Exits 1 if an op did not answer.
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


def digest(workload: str, ops: int) -> tuple[str, int]:
    """The digest prefix of the first `ops` ops, and how many did not answer."""
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
            h.update(repr(outcome.summary()).encode())
    return h.hexdigest()[:12], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    prefix, failed = digest(args.workload, args.ops)
    print(prefix)
    if failed:
        print(f"{failed} of {args.ops} ops did not answer", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
